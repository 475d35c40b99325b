package evidence

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// Cache traffic is mirrored onto the process default registry so
// /metrics shows hit rates without plumbing a registry through every
// verifier. Handles resolve once at init; a hit stays two atomic adds.
var (
	obsCacheHits      = obs.Default().Counter("verify_cache_hits_total")
	obsCacheMisses    = obs.Default().Counter("verify_cache_misses_total")
	obsCacheEvictions = obs.Default().Counter("verify_cache_evictions_total")
)

// VerifyCache memoizes SUCCESSFUL signature verifications. The TTP
// resolve path and the arbitrator re-verify the same NRO/NRR evidence
// on every dispute round; a public-key verify costs tens of
// microseconds while a cache hit costs one SHA-256 over the key
// fingerprint and message.
//
// Entries are keyed by SHA-256 over (signer key fingerprint, message
// digest, signature) — all three, so a hit proves exactly "this key
// verified this signature over this message" and nothing weaker. The
// fingerprint is the scheme handle's cached Fingerprint(), so keying
// costs no key re-serialization per lookup (it used to hash the raw
// RSA modulus every time) and works identically across schemes.
//
// Negative results are NEVER cached: a failed verification is
// attacker-controlled input (any garbage signature mints a fresh key),
// so caching failures would let an adversary flush legitimate entries
// out of the bounded LRU at will — and a transient mismatch must not
// stick to a message that a later, correctly-supplied key would verify.
//
// The cache is sharded to keep concurrent verifiers (32+ server
// goroutines) off a single mutex; each shard is an independent LRU.
type VerifyCache struct {
	shards    [verifyShards]verifyShard
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

const verifyShards = 16

type verifyShard struct {
	mu   sync.Mutex
	cap  int
	ll   *list.List // front = most recent; values are [32]byte keys
	keys map[[32]byte]*list.Element
}

// NewVerifyCache returns a cache bounded to roughly `capacity` entries
// total across shards. Capacities below one entry per shard are
// rounded up so every shard can hold something.
func NewVerifyCache(capacity int) *VerifyCache {
	per := capacity / verifyShards
	if per < 1 {
		per = 1
	}
	c := &VerifyCache{}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].ll = list.New()
		c.shards[i].keys = make(map[[32]byte]*list.Element, per)
	}
	return c
}

// Stats reports cache hits and misses so far.
func (c *VerifyCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions reports entries displaced by the LRU bound so far — the
// signal that the configured capacity is too small for the working set.
func (c *VerifyCache) Evictions() uint64 {
	return c.evictions.Load()
}

// Len reports the number of cached verifications.
func (c *VerifyCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.keys)
		s.mu.Unlock()
	}
	return n
}

// cacheKey binds signer, message, and signature into one lookup key.
// The handle's fingerprint is cached inside the handle, so the key
// costs one SHA-256 over ~100 bytes regardless of key scheme or size.
func cacheKey(pub cryptoutil.PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("tpnr-verify-cache-v2"))
	fp := pub.Fingerprint()
	h.Write([]byte{byte(pub.Scheme())})
	h.Write(fp.Sum)
	md := sha256.Sum256(msg)
	h.Write(md[:])
	h.Write(sig)
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// lookup reports whether k is cached, refreshing its LRU position and
// counting the hit or miss.
func (c *VerifyCache) lookup(k [32]byte) bool {
	s := &c.shards[k[0]%verifyShards]
	s.mu.Lock()
	el, ok := s.keys[k]
	if ok {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		obsCacheHits.Inc()
	} else {
		c.misses.Add(1)
		obsCacheMisses.Inc()
	}
	return ok
}

// insert records a successful verification under k.
func (c *VerifyCache) insert(k [32]byte) {
	s := &c.shards[k[0]%verifyShards]
	s.mu.Lock()
	if _, ok := s.keys[k]; !ok {
		s.keys[k] = s.ll.PushFront(k)
		for s.ll.Len() > s.cap {
			old := s.ll.Back()
			s.ll.Remove(old)
			delete(s.keys, old.Value.([32]byte))
			c.evictions.Add(1)
			obsCacheEvictions.Inc()
		}
	}
	s.mu.Unlock()
}

// verify checks one signature, consulting the cache first and caching
// only success. A nil cache degrades to a plain verification.
func (c *VerifyCache) verify(pub cryptoutil.PublicKey, msg, sig []byte) error {
	if c == nil {
		return pub.Verify(msg, sig)
	}
	k := cacheKey(pub, msg, sig)
	if c.lookup(k) {
		return nil
	}
	if err := pub.Verify(msg, sig); err != nil {
		return err
	}
	c.insert(k)
	return nil
}

// VerifyCachedWith checks both evidence signatures under the claimed
// sender's public key handle, whatever its scheme, consulting the cache
// so repeat verifications of the same evidence under the same key cost
// two hash lookups instead of two public-key operations. A nil cache
// means no caching; a nil key is ErrBadHeaderSig.
func (ev *Evidence) VerifyCachedWith(senderPub cryptoutil.PublicKey, c *VerifyCache) error {
	if senderPub == nil {
		return fmt.Errorf("%w: nil sender public key", ErrBadHeaderSig)
	}
	if err := c.verify(senderPub, ev.Header.Encode(), ev.HeaderSig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeaderSig, err)
	}
	if err := c.verify(senderPub, ev.Header.digestBytes(), ev.DataSig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadDataSig, err)
	}
	return nil
}

// OpenCachedWith decrypts sealed evidence with the recipient's signer
// and verifies both signatures under the sender's public key, through
// the cache (nil: none). Decryption is never cached (the ciphertext is
// fresh per seal). If plainHeader is non-nil, the sealed header must
// byte-equal it ("The peers should check the consistency between the
// hash of the plaintext and the plaintext at first", §4.1).
func OpenCachedWith(recipient cryptoutil.Signer, senderPub cryptoutil.PublicKey, sealed []byte, plainHeader *Header, c *VerifyCache) (*Evidence, error) {
	ev, err := open(recipient, sealed, plainHeader)
	if err != nil {
		return nil, err
	}
	if err := ev.VerifyCachedWith(senderPub, c); err != nil {
		return nil, err
	}
	return ev, nil
}
