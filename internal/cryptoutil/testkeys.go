package cryptoutil

import "sync"

// InsecureTestKey returns a cached 1024-bit RSA key pair for the given
// slot. Key generation dominates test time, so tests and benchmarks
// across the repository share these cached keys instead of generating
// fresh 2048-bit identities per test. Never use these outside tests,
// examples, and experiment harnesses: 1024-bit RSA is undersized for
// production and the cache makes keys process-global.
func InsecureTestKey(slot int) KeyPair { return InsecureTestKeyScheme(slot, SchemeRSA) }

// InsecureTestKeyScheme is InsecureTestKey with a scheme choice: the
// same slot yields independent cached keys per scheme, so a test can
// run its whole harness under either scheme (the chaos suite does,
// driven by the TPNR_SCHEME env var). RSA test keys are 1024-bit.
func InsecureTestKeyScheme(slot int, scheme Scheme) KeyPair {
	testKeyMu.Lock()
	defer testKeyMu.Unlock()
	k := testKey{slot: slot, scheme: scheme}
	if kp, ok := testKeys[k]; ok {
		return kp
	}
	kp, err := GenerateKeyPair(scheme, 1024)
	if err != nil {
		panic(err)
	}
	testKeys[k] = kp
	return kp
}

type testKey struct {
	slot   int
	scheme Scheme
}

var (
	testKeyMu sync.Mutex
	testKeys  = map[testKey]KeyPair{}
)
