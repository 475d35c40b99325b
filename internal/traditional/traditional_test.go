package traditional

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/pki"
	"repro/internal/storage"
)

type env struct {
	ca       *pki.Authority
	client   *Client
	provider *Provider
	ttp      *TTP
	store    *storage.Mem
}

func newEnv(t *testing.T) *env {
	t.Helper()
	ca := pki.NewAuthority("zg-ca", cryptoutil.InsecureTestKey(70))
	now := time.Now()
	mk := func(name string, slot int) *pki.Identity {
		id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKey(slot), now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b, tp := mk("alice", 71), mk("bob", 72), mk("ttp", 73)
	store := storage.NewMem(nil)
	return &env{
		ca:       ca,
		client:   NewClient(a, ca.Lookup, &metrics.Counters{}),
		provider: NewProvider(b, ca.Lookup, store, &metrics.Counters{}),
		ttp:      NewTTP(tp, ca.Lookup, &metrics.Counters{}),
		store:    store,
	}
}

func TestFullRun(t *testing.T) {
	e := newEnv(t)
	data := []byte("bulk backup payload")
	res, err := e.client.Upload(context.Background(), "L-1", "backups/x", data, e.provider, e.ttp)
	if err != nil {
		t.Fatal(err)
	}
	// B ended up with the plaintext object.
	obj, err := e.store.Get("backups/x")
	if err != nil || !bytes.Equal(obj.Data, data) {
		t.Fatalf("stored: %v %q", err, obj.Data)
	}
	// A holds the full evidence set.
	if res.NRO == nil || res.NRR == nil || res.ConK == nil {
		t.Fatal("missing evidence")
	}
}

// TestFourStepCost pins the §4.4 comparison: the traditional protocol
// needs at least 3 client sends (commit, submit, fetch) and TTP
// participation in every run — against TPNR's 1 send and 0 TTP.
func TestFourStepCost(t *testing.T) {
	e := newEnv(t)
	if _, err := e.client.Upload(context.Background(), "L-2", "k", []byte("v"), e.provider, e.ttp); err != nil {
		t.Fatal(err)
	}
	if got := e.client.Counters().Get(metrics.MsgsSent); got < 3 {
		t.Errorf("client sent %d messages, want >= 3", got)
	}
	if got := e.client.Counters().Get(metrics.TTPMsgs); got == 0 {
		t.Error("traditional protocol must involve the TTP")
	}
}

func TestFairnessKeyWithheldUntilDeposit(t *testing.T) {
	e := newEnv(t)
	// Run steps 1–2 manually: B holds only the ciphertext.
	key, _ := cryptoutil.NewSymmetricKey()
	c, _ := cryptoutil.SymmetricEncrypt(key, []byte("secret M"))
	hashC := cryptoutil.Sum(cryptoutil.SHA256, c)
	nro, err := cryptoutil.InsecureTestKey(71).Signer().Sign(signBytes(flagNRO, "L-3", hashC.Sum))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.provider.ReceiveCommit(context.Background(), "L-3", "k", c, nro, "alice"); err != nil {
		t.Fatal(err)
	}
	// Without the key deposit, B cannot complete.
	if err := e.provider.Complete(context.Background(), "L-3", e.ttp); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v, want ErrNoKey", err)
	}
	if _, err := e.store.Get("k"); err == nil {
		t.Fatal("object stored before key deposit")
	}
}

func TestForgedNRORejected(t *testing.T) {
	e := newEnv(t)
	key, _ := cryptoutil.NewSymmetricKey()
	c, _ := cryptoutil.SymmetricEncrypt(key, []byte("m"))
	hashC := cryptoutil.Sum(cryptoutil.SHA256, c)
	// Signed by mallory (slot 74), claimed to be from alice.
	forged, err := cryptoutil.InsecureTestKey(74).Signer().Sign(signBytes(flagNRO, "L-4", hashC.Sum))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.provider.ReceiveCommit(context.Background(), "L-4", "k", c, forged, "alice"); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestForgedSubKRejected(t *testing.T) {
	e := newEnv(t)
	key, _ := cryptoutil.NewSymmetricKey()
	forged, err := cryptoutil.InsecureTestKey(74).Signer().Sign(signBytes(flagSUB, "L-5", key))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ttp.Submit(context.Background(), "L-5", key, forged, "alice"); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestFetchUnknownLabel(t *testing.T) {
	e := newEnv(t)
	if _, _, err := e.ttp.Fetch(context.Background(), "L-ghost"); !errors.Is(err, ErrNoKey) {
		t.Fatalf("err = %v, want ErrNoKey", err)
	}
}

func TestConKVerifiableByThirdParty(t *testing.T) {
	// The con_K signature must verify against the TTP's certificate —
	// that is what makes it evidence.
	e := newEnv(t)
	res, err := e.client.Upload(context.Background(), "L-6", "k", []byte("v"), e.provider, e.ttp)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := e.ca.Lookup("ttp")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cert.Key()
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(signBytes(flagCON, "L-6", res.Key), res.ConK); err != nil {
		t.Fatalf("con_K does not verify: %v", err)
	}
}
