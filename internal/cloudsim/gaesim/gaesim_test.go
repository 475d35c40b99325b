package gaesim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/storage"
)

func newDeployment(t *testing.T) (*Deployment, cryptoutil.KeyPair, string) {
	t.Helper()
	src := storage.NewMem(nil)
	if _, err := src.Put("crm/customers.csv", []byte("acme,42"), cryptoutil.Digest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put("hr/salaries.csv", []byte("confidential"), cryptoutil.Digest{}); err != nil {
		t.Fatal(err)
	}
	tunnel := NewTunnelServer()
	key := cryptoutil.InsecureTestKey(20)
	tunnel.RegisterConsumer("consumer-1", key.Signer().Public().Marshal())
	token, err := tunnel.IssueToken()
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(src, []Rule{
		{ViewerID: "alice", ResourcePrefix: "crm/"},
		{ViewerID: "*", ResourcePrefix: "public/"},
	})
	return &Deployment{Tunnel: tunnel, Agent: agent}, key, token
}

func request(t *testing.T, key cryptoutil.KeyPair, token, viewer, resource string) *SignedRequest {
	t.Helper()
	r, err := BuildSignedRequest(key, "owner-corp", viewer, "inst-1", "app-1", "consumer-1", token, resource)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAuthorizedFlow(t *testing.T) {
	d, key, token := newDeployment(t)
	r := request(t, key, token, "alice", "crm/customers.csv")
	data, steps, err := d.Request(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("acme,42")) {
		t.Fatalf("data = %q", data)
	}
	if len(steps) != 6 {
		t.Fatalf("flow has %d steps: %+v", len(steps), steps)
	}
	if steps[0].Hop != "user→apps" || steps[len(steps)-1].Hop != "apps→user" {
		t.Fatalf("unexpected hops: %+v", steps)
	}
}

func TestResourceRulesDeny(t *testing.T) {
	d, key, token := newDeployment(t)
	// alice may read crm/ but not hr/.
	r := request(t, key, token, "alice", "hr/salaries.csv")
	_, steps, err := d.Request(r)
	if !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("err = %v, want ErrNotAuthorized", err)
	}
	last := steps[len(steps)-1]
	if last.Hop != "sdc" {
		t.Fatalf("rejection should happen at the SDC hop, got %q", last.Hop)
	}
}

func TestUnknownConsumerRejected(t *testing.T) {
	d, key, token := newDeployment(t)
	r := request(t, key, token, "alice", "crm/customers.csv")
	r.ConsumerKey = "consumer-unregistered"
	// Re-sign so only the consumer key is the problem.
	sig, _ := key.Signer().Sign(r.CanonicalBytes())
	r.Signature = sig
	if _, _, err := d.Request(r); !errors.Is(err, ErrUnknownConsumer) {
		t.Fatalf("err = %v, want ErrUnknownConsumer", err)
	}
}

func TestBadTokenRejected(t *testing.T) {
	d, key, _ := newDeployment(t)
	r := request(t, key, "tok-forged", "alice", "crm/customers.csv")
	if _, _, err := d.Request(r); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestNonceReplayRejected(t *testing.T) {
	d, key, token := newDeployment(t)
	r := request(t, key, token, "alice", "crm/customers.csv")
	if _, _, err := d.Request(r); err != nil {
		t.Fatal(err)
	}
	// Replaying the identical signed request must fail on the nonce.
	if _, _, err := d.Request(r); !errors.Is(err, ErrReplayedNonce) {
		t.Fatalf("replay: err = %v, want ErrReplayedNonce", err)
	}
}

func TestAttackerKeySubstitutionRejected(t *testing.T) {
	d, _, token := newDeployment(t)
	// Mallory signs a well-formed request with her own key pair and
	// includes her own public key — the tunnel must reject because that
	// key is not the one registered for consumer-1.
	mallory := cryptoutil.InsecureTestKey(21)
	r, err := BuildSignedRequest(mallory, "owner-corp", "alice", "inst-1", "app-1", "consumer-1", token, "crm/customers.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Request(r); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestTamperedFieldBreaksSignature(t *testing.T) {
	d, key, token := newDeployment(t)
	r := request(t, key, token, "bob", "public/doc")
	r.ViewerID = "alice" // escalate after signing
	if _, _, err := d.Request(r); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestMissingResource(t *testing.T) {
	d, key, token := newDeployment(t)
	r := request(t, key, token, "alice", "crm/ghost.csv")
	if _, _, err := d.Request(r); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestWildcardRule(t *testing.T) {
	d, key, token := newDeployment(t)
	if _, err := d.Agent.Source().Put("public/readme", []byte("hello"), cryptoutil.Digest{}); err != nil {
		t.Fatal(err)
	}
	r := request(t, key, token, "randomviewer", "public/readme")
	data, _, err := d.Request(r)
	if err != nil || string(data) != "hello" {
		t.Fatalf("wildcard rule: %q, %v", data, err)
	}
}

func TestRuleAllows(t *testing.T) {
	ru := Rule{ViewerID: "alice", ResourcePrefix: "crm/"}
	cases := []struct {
		viewer, res string
		want        bool
	}{
		{"alice", "crm/a", true},
		{"alice", "hr/a", false},
		{"bob", "crm/a", false},
		{"alice", "crm", false},
	}
	for _, c := range cases {
		if got := ru.Allows(c.viewer, c.res); got != c.want {
			t.Errorf("Allows(%q,%q) = %v, want %v", c.viewer, c.res, got, c.want)
		}
	}
}

// TestStorageDwellGap: the SDC path authenticates everything in flight,
// but data tampered at the source is served as-is — same E5 gap.
func TestStorageDwellGap(t *testing.T) {
	d, key, token := newDeployment(t)
	tam := d.Agent.Source().(storage.Tamperer)
	if err := tam.Tamper("crm/customers.csv", true, func(b []byte) []byte {
		return []byte("acme,0")
	}); err != nil {
		t.Fatal(err)
	}
	r := request(t, key, token, "alice", "crm/customers.csv")
	data, _, err := d.Request(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "acme,0" {
		t.Fatalf("data = %q", data)
	}
	// All checks passed, yet the content is not what was stored: the
	// platform offers no upload-to-download integrity.
}
