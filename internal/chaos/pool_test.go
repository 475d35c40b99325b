package chaos

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/transport"
)

// severConn is a link that dies mid-transaction: its first Send still
// reaches the peer, but before that frame is handed to the wire the
// shared partition is engaged and the receive side is cut, so the
// client's commitment arrives and the provider's receipt can never be
// read on this link, whichever side the scheduler runs first.
type severConn struct {
	transport.Conn
	part    *transport.Partition
	severed atomic.Bool
}

func (c *severConn) Send(b []byte) error {
	if !c.severed.CompareAndSwap(false, true) {
		return transport.ErrClosed
	}
	c.part.Engage()
	err := c.Conn.Send(b)
	c.Conn.Close()
	return err
}

// Recv drops whatever the link delivers once it is severed: a reader
// already blocked in the underlying Recv when the link died, and the
// pipe's habit of draining buffered frames after Close, would both
// hand the receipt over otherwise.
func (c *severConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if c.severed.Load() {
		return nil, transport.ErrClosed
	}
	return msg, err
}

// TestPoolPartitionEscalatesToTTP: the network partitions mid-upload —
// the NRO reaches the provider but the connection dies before the NRR
// returns, and every redial fails while the partition holds. The pool
// must burn its retry budget, hit ErrRetriesExhausted, and escalate to
// the TTP per §4.3; the TTP relays the provider's receipt, so the
// client still ends the session holding a complete evidence pair.
func TestPoolPartitionEscalatesToTTP(t *testing.T) {
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: chaosTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	part := &transport.Partition{}
	var dials, refused atomic.Int32
	var severed atomic.Bool // only the first connection dies mid-transaction
	dial := func(ctx context.Context) (transport.Conn, error) {
		dials.Add(1)
		if part.Engaged() {
			refused.Add(1)
			return nil, fmt.Errorf("chaos: provider unreachable (partition engaged)")
		}
		c, err := d.Net.DialContext(ctx, deploy.ProviderName)
		if err != nil {
			return nil, err
		}
		if severed.CompareAndSwap(false, true) {
			return &severConn{Conn: c, part: part}, nil
		}
		return c, nil
	}
	pool := core.NewSessionPool(d.Client, dial,
		core.PoolRetries(2),
		core.PoolBackoff(time.Millisecond),
		core.PoolTTPDial(func(ctx context.Context) (transport.Conn, error) {
			return d.Net.DialContext(ctx, deploy.TTPName)
		}))
	defer pool.Close()

	data := []byte("partitioned mid-transaction")
	res, err := pool.Upload(context.Background(), "txn-part-1", "part/obj", data)
	if err != nil {
		t.Fatalf("upload under mid-transaction partition = %v, want TTP-relayed success", err)
	}
	if res.NRR == nil || res.NRR.Header.Kind != evidence.KindNRR {
		t.Fatalf("escalated upload returned no NRR: %+v", res)
	}
	// The receipt arrived through the TTP, not the dead link: the pool
	// exhausted its retries first (the initial dial plus two refused
	// redials), and the TTP logged a resolve.
	if refused.Load() < 2 {
		t.Errorf("partitioned redials = %d, want >= 2 (retry budget not exercised)", refused.Load())
	}
	if got := dials.Load(); got < 3 {
		t.Errorf("total dial attempts = %d, want >= 3", got)
	}
	if _, err := d.Client.EvidenceByKind("txn-part-1", evidence.RolePeer, evidence.KindResolveResponse); err != nil {
		t.Errorf("client did not archive the TTP's resolve statement: %v", err)
	}
	// The provider stored the data and its receipt commits to it.
	obj, err := d.Store.Get("part/obj")
	if err != nil || !bytes.Equal(obj.Data, data) {
		t.Fatalf("provider store does not hold the uploaded object: %v", err)
	}
	if !res.NRR.Header.DataMD5.Equal(res.NRO.Header.DataMD5) {
		t.Error("relayed NRR commits to different digests than the NRO")
	}

	// Healing the partition restores normal operation on the same pool:
	// the next upload completes directly, no escalation needed.
	part.Heal()
	if _, err := pool.Upload(context.Background(), "txn-part-2", "part/obj2", []byte("after heal")); err != nil {
		t.Fatalf("upload after healing the partition = %v", err)
	}
}
