// Package gaesim simulates the Google App Engine Secure Data Connector
// path the paper analyzes (§2.3, Fig. 4): a user's request enters
// Google Apps, is forwarded to the Tunnel Server, which validates it;
// the SDC agent inside the corporate network applies resource rules and
// performs the internal network request; the data source validates the
// signed request (owner_id, viewer_id, instance_id, app_id, public_key,
// consumer_key, nonce, token, signature) and returns data if the user
// is authorized.
//
// As with the other two simulators, authentication and transport
// integrity are faithful — and the storage-dwell integrity gap is the
// same: nothing ties returned content to what was originally stored.
package gaesim

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Simulator errors.
var (
	ErrUnknownConsumer = errors.New("gaesim: unknown consumer_key")
	ErrBadToken        = errors.New("gaesim: invalid token")
	ErrBadSignature    = errors.New("gaesim: signed request verification failed")
	ErrReplayedNonce   = errors.New("gaesim: nonce already used")
	ErrNotAuthorized   = errors.New("gaesim: resource rules deny access")
	ErrNotFound        = errors.New("gaesim: resource not found")
)

// SignedRequest carries the §2.3 field set. Signature covers the
// canonical encoding of every other field under the key whose PKIX DER
// is in PublicKey; ConsumerKey must be pre-registered with the tunnel
// so an attacker cannot substitute their own key pair.
type SignedRequest struct {
	OwnerID     string
	ViewerID    string
	InstanceID  string
	AppID       string
	PublicKey   []byte // PKIX DER of the signer's RSA key
	ConsumerKey string
	Nonce       []byte
	Token       string
	Resource    string // the internal path being requested
	Signature   []byte
}

// CanonicalBytes is the byte string the signature covers.
func (r *SignedRequest) CanonicalBytes() []byte {
	var b strings.Builder
	b.WriteString("sdc-signed-request-v1\x00")
	for _, f := range []string{r.OwnerID, r.ViewerID, r.InstanceID, r.AppID, r.ConsumerKey, r.Token, r.Resource} {
		b.WriteString(f)
		b.WriteByte(0)
	}
	b.Write(r.PublicKey)
	b.WriteByte(0)
	b.Write(r.Nonce)
	return []byte(b.String())
}

// Rule is one SDC resource rule: which viewer may touch which resource
// prefix.
type Rule struct {
	ViewerID       string // "*" matches any viewer
	ResourcePrefix string
}

// Allows reports whether the rule admits the (viewer, resource) pair.
func (ru Rule) Allows(viewerID, resource string) bool {
	if ru.ViewerID != "*" && ru.ViewerID != viewerID {
		return false
	}
	return strings.HasPrefix(resource, ru.ResourcePrefix)
}

// TunnelServer validates inbound requests before they enter the
// corporate network: consumer key registration, token validity, nonce
// freshness, and the request signature.
type TunnelServer struct {
	mu        sync.Mutex
	consumers map[string][]byte // consumer_key → registered PKIX public key DER
	tokens    map[string]bool   // valid tokens
	// seenNonce is a bounded replay window (same memory/horizon
	// trade-off as session.Guard): nonceOrder evicts oldest-first.
	seenNonce  map[string]bool
	nonceOrder []string
	// NonceWindow bounds remembered nonces; replays older than the
	// window go undetected (document, don't hide, the trade-off).
	NonceWindow int
}

// NewTunnelServer returns an empty tunnel registry.
func NewTunnelServer() *TunnelServer {
	return &TunnelServer{
		consumers:   make(map[string][]byte),
		tokens:      make(map[string]bool),
		seenNonce:   make(map[string]bool),
		NonceWindow: 1 << 16,
	}
}

// RegisterConsumer pins a consumer key to its public key.
func (t *TunnelServer) RegisterConsumer(consumerKey string, publicKeyDER []byte) {
	t.mu.Lock()
	t.consumers[consumerKey] = append([]byte(nil), publicKeyDER...)
	t.mu.Unlock()
}

// IssueToken mints a bearer token for an authenticated session.
func (t *TunnelServer) IssueToken() (string, error) {
	raw, err := cryptoutil.Nonce(16)
	if err != nil {
		return "", fmt.Errorf("gaesim: minting token: %w", err)
	}
	tok := fmt.Sprintf("tok-%x", raw)
	t.mu.Lock()
	t.tokens[tok] = true
	t.mu.Unlock()
	return tok, nil
}

// Validate enforces the tunnel checks on a signed request.
func (t *TunnelServer) Validate(r *SignedRequest) error {
	t.mu.Lock()
	registered, knownConsumer := t.consumers[r.ConsumerKey]
	validToken := t.tokens[r.Token]
	replayed := t.seenNonce[string(r.Nonce)]
	if !replayed {
		t.seenNonce[string(r.Nonce)] = true
		t.nonceOrder = append(t.nonceOrder, string(r.Nonce))
		for len(t.nonceOrder) > t.NonceWindow {
			delete(t.seenNonce, t.nonceOrder[0])
			t.nonceOrder = t.nonceOrder[1:]
		}
	}
	t.mu.Unlock()

	if !knownConsumer {
		return fmt.Errorf("%w: %q", ErrUnknownConsumer, r.ConsumerKey)
	}
	if !validToken {
		return fmt.Errorf("%w: %q", ErrBadToken, r.Token)
	}
	if replayed {
		return ErrReplayedNonce
	}
	// The public key in the request must be the registered one — an
	// attacker including their own key pair is rejected here.
	if string(registered) != string(r.PublicKey) {
		return fmt.Errorf("%w: public key not registered for consumer", ErrBadSignature)
	}
	pub, err := cryptoutil.ParseAnyPublicKey(r.PublicKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if err := pub.Verify(r.CanonicalBytes(), r.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return nil
}

// Agent is the SDC agent inside the corporate network: resource rules
// plus the internal data source.
type Agent struct {
	rules  []Rule
	source storage.Store
}

// NewAgent builds an agent over the internal data source.
func NewAgent(source storage.Store, rules []Rule) *Agent {
	return &Agent{rules: rules, source: source}
}

// Source exposes the internal data source (insider view).
func (a *Agent) Source() storage.Store { return a.source }

// Fetch applies resource rules and performs the internal request.
func (a *Agent) Fetch(viewerID, resource string) ([]byte, error) {
	allowed := false
	for _, ru := range a.rules {
		if ru.Allows(viewerID, resource) {
			allowed = true
			break
		}
	}
	if !allowed {
		return nil, fmt.Errorf("%w: viewer %q resource %q", ErrNotAuthorized, viewerID, resource)
	}
	obj, err := a.source.Get(resource)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, resource)
		}
		return nil, err
	}
	return obj.Data, nil
}

// Deployment wires Apps → Tunnel → SDC agent into the Fig. 4 pipeline.
type Deployment struct {
	Tunnel *TunnelServer
	Agent  *Agent
}

// FlowStep records one hop of the Fig. 4 walk-through for transcripts.
type FlowStep struct {
	Hop    string
	Detail string
}

// Request runs the full flow and returns the data plus the hop
// transcript. The transcript is produced even on failure, stopping at
// the hop that rejected.
func (d *Deployment) Request(r *SignedRequest) ([]byte, []FlowStep, error) {
	steps := []FlowStep{
		{Hop: "user→apps", Detail: "authorized data request for " + r.Resource},
		{Hop: "apps→tunnel", Detail: "forward request to tunnel server"},
	}
	if err := d.Tunnel.Validate(r); err != nil {
		steps = append(steps, FlowStep{Hop: "tunnel", Detail: "REJECT: " + err.Error()})
		return nil, steps, err
	}
	steps = append(steps,
		FlowStep{Hop: "tunnel", Detail: "request validated; encrypted tunnel established"},
		FlowStep{Hop: "sdc", Detail: "apply resource rules for viewer " + r.ViewerID},
	)
	data, err := d.Agent.Fetch(r.ViewerID, r.Resource)
	if err != nil {
		steps = append(steps, FlowStep{Hop: "sdc", Detail: "REJECT: " + err.Error()})
		return nil, steps, err
	}
	steps = append(steps,
		FlowStep{Hop: "source", Detail: fmt.Sprintf("credentials checked; %d bytes returned", len(data))},
		FlowStep{Hop: "apps→user", Detail: "data delivered"},
	)
	return data, steps, nil
}

// BuildSignedRequest constructs and signs a request for the given
// identity key.
func BuildSignedRequest(key cryptoutil.KeyPair, ownerID, viewerID, instanceID, appID, consumerKey, token, resource string) (*SignedRequest, error) {
	signer := key.Signer()
	if signer == nil {
		return nil, fmt.Errorf("gaesim: key pair holds no private key")
	}
	der := signer.Public().Marshal()
	r := &SignedRequest{
		OwnerID:     ownerID,
		ViewerID:    viewerID,
		InstanceID:  instanceID,
		AppID:       appID,
		PublicKey:   der,
		ConsumerKey: consumerKey,
		Nonce:       cryptoutil.MustNonce(),
		Token:       token,
		Resource:    resource,
	}
	sig, err := signer.Sign(r.CanonicalBytes())
	if err != nil {
		return nil, err
	}
	r.Signature = sig
	return r, nil
}

// EncodeSignedRequest serializes a signed request for transport (e.g.
// through the encrypted tunnel).
func EncodeSignedRequest(r *SignedRequest) []byte {
	e := wire.NewEncoder(256 + len(r.PublicKey) + len(r.Signature))
	e.String("sdc-request-v1")
	e.String(r.OwnerID)
	e.String(r.ViewerID)
	e.String(r.InstanceID)
	e.String(r.AppID)
	e.Bytes32(r.PublicKey)
	e.String(r.ConsumerKey)
	e.Bytes32(r.Nonce)
	e.String(r.Token)
	e.String(r.Resource)
	e.Bytes32(r.Signature)
	return e.Bytes()
}

// DecodeSignedRequest reverses EncodeSignedRequest.
func DecodeSignedRequest(b []byte) (*SignedRequest, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic("sdc-request-v1"); err != nil {
		return nil, fmt.Errorf("gaesim: bad request: %w", err)
	}
	r := &SignedRequest{
		OwnerID:    d.String(),
		ViewerID:   d.String(),
		InstanceID: d.String(),
		AppID:      d.String(),
	}
	r.PublicKey = d.Bytes32()
	r.ConsumerKey = d.String()
	r.Nonce = d.Bytes32()
	r.Token = d.String()
	r.Resource = d.String()
	r.Signature = d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("gaesim: decoding request: %w", err)
	}
	return r, nil
}
