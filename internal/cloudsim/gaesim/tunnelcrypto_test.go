package gaesim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/storage"
	"repro/internal/transport"
)

func establishPair(t *testing.T) (*SecureChannel, *SecureChannel, *transport.Tap) {
	t.Helper()
	tunnel := NewTunnelServer()
	key := cryptoutil.InsecureTestKey(140)
	tunnel.RegisterConsumer("sdc-1", key.Signer().Public().Marshal())

	// Wire the two ends through a tap so tests can observe/modify the
	// ciphertext like a network attacker.
	serverRaw, tapServerSide := transport.Pipe(0)
	agentRaw, tapAgentSide := transport.Pipe(0)
	tap := transport.NewTap(tapAgentSide, tapServerSide, nil)

	serverCh, wrapped, err := tunnel.EstablishTunnel("sdc-1", serverRaw)
	if err != nil {
		t.Fatal(err)
	}
	agentCh, err := AcceptTunnel(key, wrapped, agentRaw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tap.Close)
	return serverCh, agentCh, tap
}

func TestTunnelRoundTrip(t *testing.T) {
	server, agent, _ := establishPair(t)
	if err := server.Send([]byte("request: crm/accounts")); err != nil {
		t.Fatal(err)
	}
	got, err := agent.Recv()
	if err != nil || string(got) != "request: crm/accounts" {
		t.Fatalf("agent recv: %q %v", got, err)
	}
	if err := agent.Send([]byte("response data")); err != nil {
		t.Fatal(err)
	}
	got, err = server.Recv()
	if err != nil || string(got) != "response data" {
		t.Fatalf("server recv: %q %v", got, err)
	}
}

func TestTunnelConfidentiality(t *testing.T) {
	server, agent, tap := establishPair(t)
	secret := []byte("patient record: dosage = 10mg")
	if err := server.Send(secret); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Recv(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range tap.Log() {
		if bytes.Contains(rec.Msg, secret) {
			t.Fatal("plaintext visible on the wire")
		}
	}
}

func TestTunnelTamperRejected(t *testing.T) {
	tunnel := NewTunnelServer()
	key := cryptoutil.InsecureTestKey(140)
	tunnel.RegisterConsumer("sdc-1", key.Signer().Public().Marshal())

	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	serverCh, wrapped, err := tunnel.EstablishTunnel("sdc-1", a)
	if err != nil {
		t.Fatal(err)
	}
	agentCh, err := AcceptTunnel(key, wrapped, b)
	if err != nil {
		t.Fatal(err)
	}
	// Send a frame, but flip a ciphertext bit in flight: to do that we
	// bypass the channel and mutate directly on the raw pipe.
	ct, err := cryptoutil.SymmetricEncrypt(chKey(serverCh), []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	ct[len(ct)-1] ^= 1
	if err := a.Send(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := agentCh.Recv(); err == nil {
		t.Fatal("tampered tunnel frame accepted")
	}
}

// chKey reaches the channel key for the tamper test.
func chKey(c *SecureChannel) []byte { return c.key }

func TestTunnelHandshakeFailures(t *testing.T) {
	tunnel := NewTunnelServer()
	a, _ := transport.Pipe(0)
	defer a.Close()
	if _, _, err := tunnel.EstablishTunnel("unregistered", a); !errors.Is(err, ErrTunnelHandshake) {
		t.Fatalf("unregistered consumer: %v", err)
	}

	// Wrapped key addressed to someone else cannot be accepted.
	key := cryptoutil.InsecureTestKey(140)
	other := cryptoutil.InsecureTestKey(141)
	tunnel.RegisterConsumer("sdc-1", key.Signer().Public().Marshal())
	_, wrapped, err := tunnel.EstablishTunnel("sdc-1", a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AcceptTunnel(other, wrapped, a); !errors.Is(err, ErrTunnelHandshake) {
		t.Fatalf("wrong private key: %v", err)
	}
}

// TestSignedRequestOverTunnel runs the full Fig. 4 pipeline with the
// request bytes actually crossing the encrypted tunnel: the signed
// request is serialized, sent through a SecureChannel pair, decoded on
// the agent side and executed — the transport protection and the
// application-layer checks compose.
func TestSignedRequestOverTunnel(t *testing.T) {
	src := storage.NewMem(nil)
	src.Put("crm/x", []byte("row-1"), cryptoutil.Digest{})
	tunnel := NewTunnelServer()
	key := cryptoutil.InsecureTestKey(142)
	tunnel.RegisterConsumer("c", key.Signer().Public().Marshal())
	token, err := tunnel.IssueToken()
	if err != nil {
		t.Fatal(err)
	}
	dep := &Deployment{Tunnel: tunnel, Agent: NewAgent(src, []Rule{{ViewerID: "*", ResourcePrefix: "crm/"}})}

	// Handshake over a raw pipe.
	a, b := transport.Pipe(0)
	defer a.Close()
	defer b.Close()
	serverCh, wrapped, err := tunnel.EstablishTunnel("c", a)
	if err != nil {
		t.Fatal(err)
	}
	agentCh, err := AcceptTunnel(key, wrapped, b)
	if err != nil {
		t.Fatal(err)
	}

	// Serialize the signed request, push it through the tunnel.
	req, err := BuildSignedRequest(key, "o", "v", "i", "a", "c", token, "crm/x")
	if err != nil {
		t.Fatal(err)
	}
	reqBytes := EncodeSignedRequest(req)
	if err := serverCh.Send(reqBytes); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := agentCh.Recv()
	if err != nil {
		t.Fatal(err)
	}
	gotReq, err := DecodeSignedRequest(gotBytes)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dep.Request(gotReq)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "row-1" {
		t.Fatalf("data = %q", data)
	}
}
