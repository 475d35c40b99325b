// Package keystore persists identities, CA material and evidence to
// disk so the command-line daemons (nrserver, ttpd, nrclient,
// arbiterd) can share one PKI across processes — the operational glue
// the paper assumes but a runnable system needs.
//
// Layout under a state directory:
//
//	ca.json            CA name + private key (kept by the CA operator)
//	ca.pub.json        CA public key + every issued certificate
//	<party>.key.json   a party's private key + certificate
//	evidence/<txn>.<role>.<kind>.json   archived evidence items
package keystore

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/pki"
)

// certJSON serializes a certificate.
type certJSON struct {
	Serial    uint64    `json:"serial"`
	Subject   string    `json:"subject"`
	PublicKey string    `json:"public_key_der_b64"`
	NotBefore time.Time `json:"not_before"`
	NotAfter  time.Time `json:"not_after"`
	Signature string    `json:"signature_b64"`
}

func certToJSON(c *pki.Certificate) certJSON {
	return certJSON{
		Serial:    c.Serial,
		Subject:   c.Subject,
		PublicKey: base64.StdEncoding.EncodeToString(c.PublicKeyDER),
		NotBefore: c.NotBefore,
		NotAfter:  c.NotAfter,
		Signature: base64.StdEncoding.EncodeToString(c.Signature),
	}
}

func certFromJSON(j certJSON) (*pki.Certificate, error) {
	der, err := base64.StdEncoding.DecodeString(j.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("keystore: decoding certificate key: %w", err)
	}
	sig, err := base64.StdEncoding.DecodeString(j.Signature)
	if err != nil {
		return nil, fmt.Errorf("keystore: decoding certificate signature: %w", err)
	}
	return &pki.Certificate{
		Serial: j.Serial, Subject: j.Subject, PublicKeyDER: der,
		NotBefore: j.NotBefore, NotAfter: j.NotAfter, Signature: sig,
	}, nil
}

type bundleJSON struct {
	CAPublicKey string     `json:"ca_public_key_der_b64"`
	Certs       []certJSON `json:"certificates"`
}

type partyJSON struct {
	Name       string   `json:"name"`
	PrivateKey string   `json:"private_key_der_b64"`
	Cert       certJSON `json:"certificate"`
}

// InitScheme creates a state directory with a fresh CA and one
// identity per name under the given scheme, valid for the given
// duration. keyBits applies to RSA only. Private keys are stored in the
// scheme's MarshalSigner form — for RSA that is the PKCS#1 DER this
// package has always written, so existing state directories keep
// loading.
func InitScheme(dir string, names []string, keyBits int, validity time.Duration, scheme cryptoutil.Scheme) error {
	if err := os.MkdirAll(filepath.Join(dir, "evidence"), 0o755); err != nil {
		return fmt.Errorf("keystore: creating %s: %w", dir, err)
	}
	caKey, err := cryptoutil.GenerateKeyPair(scheme, keyBits)
	if err != nil {
		return err
	}
	ca := pki.NewAuthority("repro-ca", caKey)
	now := time.Now()
	bundle := bundleJSON{}
	caPub := ca.Key()
	if caPub == nil {
		return fmt.Errorf("keystore: CA has no public key")
	}
	bundle.CAPublicKey = base64.StdEncoding.EncodeToString(caPub.Marshal())

	for _, name := range names {
		key, err := cryptoutil.GenerateKeyPair(scheme, keyBits)
		if err != nil {
			return err
		}
		id, err := pki.NewIdentity(ca, name, key, now.Add(-time.Minute), now.Add(validity))
		if err != nil {
			return err
		}
		privDER, err := cryptoutil.MarshalSigner(key.Signer())
		if err != nil {
			return err
		}
		bundle.Certs = append(bundle.Certs, certToJSON(id.Cert))
		pj := partyJSON{
			Name:       name,
			PrivateKey: base64.StdEncoding.EncodeToString(privDER),
			Cert:       certToJSON(id.Cert),
		}
		if err := writeJSON(filepath.Join(dir, name+".key.json"), pj); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, "ca.pub.json"), bundle)
}

// World is the loaded trust state: the CA public key and a directory
// of certificates. Keys are parsed ONCE at load into scheme handles —
// the old implementation re-parsed DER on every CAKey/per-message
// lookup, which showed up as per-request allocations on the daemons'
// hot paths (asserted by TestWorldLookupAllocs).
type World struct {
	CAKeyDER []byte
	caKey    cryptoutil.PublicKey
	certs    map[string]*pki.Certificate
	keys     map[string]cryptoutil.PublicKey
}

// LoadWorld reads ca.pub.json from a state directory, parsing every
// key into its cached handle up front.
func LoadWorld(dir string) (*World, error) {
	var bundle bundleJSON
	if err := readJSON(filepath.Join(dir, "ca.pub.json"), &bundle); err != nil {
		return nil, err
	}
	der, err := base64.StdEncoding.DecodeString(bundle.CAPublicKey)
	if err != nil {
		return nil, fmt.Errorf("keystore: decoding CA key: %w", err)
	}
	caKey, err := cryptoutil.ParseAnyPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("keystore: parsing CA key: %w", err)
	}
	w := &World{
		CAKeyDER: der,
		caKey:    caKey,
		certs:    make(map[string]*pki.Certificate),
		keys:     make(map[string]cryptoutil.PublicKey),
	}
	for _, cj := range bundle.Certs {
		cert, err := certFromJSON(cj)
		if err != nil {
			return nil, err
		}
		key, err := cert.Key()
		if err != nil {
			return nil, fmt.Errorf("keystore: parsing key for %q: %w", cert.Subject, err)
		}
		w.certs[cert.Subject] = cert
		w.keys[cert.Subject] = key
	}
	return w, nil
}

// CAPublicKey returns the CA key handle parsed at load time.
func (w *World) CAPublicKey() cryptoutil.PublicKey { return w.caKey }

// Key returns the cached public key handle for a known identity. The
// handle (and its fingerprint) is parsed once at LoadWorld, so calling
// this per inbound message costs a map lookup, not a DER parse.
func (w *World) Key(name string) (cryptoutil.PublicKey, error) {
	key, ok := w.keys[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", pki.ErrUnknownIdentity, name)
	}
	return key, nil
}

// Fingerprint returns the cached key fingerprint for a known identity.
func (w *World) Fingerprint(name string) (cryptoutil.Digest, error) {
	key, err := w.Key(name)
	if err != nil {
		return cryptoutil.Digest{}, err
	}
	return key.Fingerprint(), nil
}

// Lookup implements the core.Directory contract.
func (w *World) Lookup(name string) (*pki.Certificate, error) {
	cert, ok := w.certs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", pki.ErrUnknownIdentity, name)
	}
	return cert.Clone(), nil
}

// Names lists known identities, sorted.
func (w *World) Names() []string {
	out := make([]string, 0, len(w.certs))
	for n := range w.certs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LoadIdentity reads a party's private key + certificate. Both key
// encodings load: legacy PKCS#1 RSA files and scheme envelopes.
func LoadIdentity(dir, name string) (*pki.Identity, error) {
	var pj partyJSON
	if err := readJSON(filepath.Join(dir, name+".key.json"), &pj); err != nil {
		return nil, err
	}
	der, err := base64.StdEncoding.DecodeString(pj.PrivateKey)
	if err != nil {
		return nil, fmt.Errorf("keystore: decoding private key: %w", err)
	}
	signer, err := cryptoutil.ParseSigner(der)
	if err != nil {
		return nil, fmt.Errorf("keystore: parsing private key: %w", err)
	}
	cert, err := certFromJSON(pj.Cert)
	if err != nil {
		return nil, err
	}
	return &pki.Identity{Name: pj.Name, Key: cryptoutil.SignerKeyPair(signer), Cert: cert}, nil
}

// SaveEvidence archives one evidence item under the state directory.
func SaveEvidence(dir, txn string, role evidence.Role, ev *evidence.Evidence) error {
	payload := map[string]string{
		"encoded_b64": base64.StdEncoding.EncodeToString(ev.Encode()),
	}
	return writeJSON(evidenceFile(dir, txn, role, ev.Header.Kind), payload)
}

// LoadEvidence reads one archived evidence item.
func LoadEvidence(dir, txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error) {
	var payload map[string]string
	if err := readJSON(evidenceFile(dir, txn, role, kind), &payload); err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(payload["encoded_b64"])
	if err != nil {
		return nil, fmt.Errorf("keystore: decoding evidence: %w", err)
	}
	return evidence.Decode(raw)
}

// ListEvidence lists archived evidence file names.
func ListEvidence(dir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(dir, "evidence"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// evidenceFile names the file one evidence item is archived under. The
// transaction ID is path-escaped, which is injective — distinct IDs
// never share a file — keeps the name one path element, and leaves IDs
// made of letters, digits, '-' and '_' as they are.
func evidenceFile(dir, txn string, role evidence.Role, kind evidence.Kind) string {
	return filepath.Join(dir, "evidence", fmt.Sprintf("%s.%s.%s.json", url.PathEscape(txn), role, kind))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("keystore: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		return fmt.Errorf("keystore: writing %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("keystore: reading %s: %w", path, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("keystore: parsing %s: %w", path, err)
	}
	return nil
}
