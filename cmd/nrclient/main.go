// Command nrclient is the TPNR storage client (Alice). It runs the
// protocol against an nrserver (and a ttpd for resolve), persisting
// all evidence to the state directory so disputes can be arbitrated
// later by arbiterd.
//
// Usage:
//
//	nrclient -state ./state upload   -txn t1 -key docs/a -file report.pdf
//	nrclient -state ./state download -txn t2 -key docs/a -upload-txn t1 -out got.pdf
//	nrclient -state ./state abort    -txn t1 -reason "peer silent"
//	nrclient -state ./state resolve  -txn t1 -report "no NRR before deadline"
//	nrclient -state ./state audit    -txn t1 -audit-challenges 4
//
// audit runs a storage-dwell challenge (DESIGN.md §14) against the
// provider: random Merkle leaves of the upload are challenged and the
// provider must answer with inclusion proofs under the root it signed
// into the NRR — without the client re-downloading anything. A failed
// or ignored challenge exits non-zero; the journaled challenge is
// itself conviction material for arbitration.
//
// Common flags: -name alice -server 127.0.0.1:9000 -ttp 127.0.0.1:9001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/keystore"
	"repro/internal/metrics"
	"repro/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	op := os.Args[1]
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	state := fs.String("state", "./state", "PKI state directory")
	name := fs.String("name", "alice", "client identity name")
	providerName := fs.String("provider", "bob", "provider identity name")
	ttpName := fs.String("ttp-name", "ttp", "TTP identity name")
	server := fs.String("server", "127.0.0.1:9000", "provider TCP address")
	ttpAddr := fs.String("ttp", "127.0.0.1:9001", "TTP TCP address")
	timeout := fs.Duration("timeout", 10*time.Second, "response timeout")

	txn := fs.String("txn", "", "transaction ID")
	key := fs.String("key", "", "object key")
	file := fs.String("file", "", "file to upload")
	out := fs.String("out", "", "file to write downloaded data to")
	uploadTxn := fs.String("upload-txn", "", "upload transaction whose agreed digest the download must match")
	reason := fs.String("reason", "client requested cancellation", "abort reason")
	report := fs.String("report", "no response before time limit", "resolve anomaly report")
	auditN := fs.Int("audit-challenges", core.DefaultAuditChallenges, "random leaves per storage-dwell audit challenge")
	fs.Parse(os.Args[2:])

	if *txn == "" {
		fail(errors.New("-txn is required"))
	}
	client, err := buildClient(*state, *name, *providerName, *ttpName, *timeout)
	if err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	switch op {
	case "upload":
		data, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		conn := dial(*server)
		defer conn.Close()
		res, err := client.Upload(ctx, conn, *txn, *key, data)
		if err != nil {
			fail(err)
		}
		saveEvidence(*state, *txn, evidence.RoleOwn, res.NRO)
		saveEvidence(*state, *txn, evidence.RolePeer, res.NRR)
		fmt.Printf("uploaded %d bytes as %q (txn %s)\n", len(data), *key, *txn)
		fmt.Printf("agreed md5: %s\n", res.NRR.Header.DataMD5.Hex())
		fmt.Println("evidence archived: NRO (own), NRR (provider-signed)")

	case "download":
		conn := dial(*server)
		defer conn.Close()
		// Reload the agreed receipt from the evidence archive, if any.
		if *uploadTxn != "" {
			if nrr, err := keystore.LoadEvidence(*state, *uploadTxn, evidence.RolePeer, evidence.KindNRR); err == nil {
				client.ImportEvidence(*uploadTxn, evidence.RolePeer, nrr)
			}
		}
		res, err := client.Download(ctx, conn, *txn, *key, *uploadTxn)
		if err != nil {
			if errors.Is(err, core.ErrIntegrity) && res != nil {
				saveEvidence(*state, *txn, evidence.RolePeer, res.Receipt)
				fmt.Fprintln(os.Stderr, "INTEGRITY FAILURE: served data does not match the agreed upload digest")
				fmt.Fprintln(os.Stderr, "the provider's receipt over the tampered bytes has been archived for arbitration")
				os.Exit(3)
			}
			fail(err)
		}
		saveEvidence(*state, *txn, evidence.RolePeer, res.Receipt)
		if *out != "" {
			if err := os.WriteFile(*out, res.Data, 0o644); err != nil {
				fail(err)
			}
		}
		fmt.Printf("downloaded %d bytes of %q (integrity verified against upload: %v)\n",
			len(res.Data), *key, res.AgreedUpload != nil && res.IntegrityOK)

	case "abort":
		conn := dial(*server)
		defer conn.Close()
		res, err := client.Abort(ctx, conn, *txn, *reason)
		if err != nil {
			fail(err)
		}
		saveEvidence(*state, *txn, evidence.RolePeer, res.Receipt)
		fmt.Printf("abort of %s: accepted=%v (%s)\n", *txn, res.Accepted, res.Receipt.Header.Note)

	case "resolve":
		// Resolve needs the archived own NRO.
		if nro, err := keystore.LoadEvidence(*state, *txn, evidence.RoleOwn, evidence.KindNRO); err == nil {
			client.ImportEvidence(*txn, evidence.RoleOwn, nro)
		} else {
			fail(fmt.Errorf("no archived NRO for %s (did the upload run from this state dir?): %w", *txn, err))
		}
		conn := dial(*ttpAddr)
		defer conn.Close()
		res, err := client.Resolve(ctx, conn, *txn, *report)
		if err != nil {
			fail(err)
		}
		fmt.Printf("resolve outcome: %s\n", res.Outcome)
		if res.PeerEvidence != nil {
			saveEvidence(*state, *txn, evidence.RolePeer, res.PeerEvidence)
			fmt.Println("provider evidence relayed by TTP and archived")
		}
		if res.TTPStatement != nil {
			saveEvidence(*state, *txn, evidence.RolePeer, res.TTPStatement)
			fmt.Println("TTP statement archived")
		}

	case "audit":
		// The audit verifies responses against the root commitment inside
		// the archived NRR; reload it from the state directory first.
		if nrr, err := keystore.LoadEvidence(*state, *txn, evidence.RolePeer, evidence.KindNRR); err == nil {
			client.ImportEvidence(*txn, evidence.RolePeer, nrr)
		} else {
			fail(fmt.Errorf("no archived NRR for %s (did the upload run from this state dir?): %w", *txn, err))
		}
		// Prior audit rounds too: their headers carry the sequence
		// numbers this identity already burned against the provider's
		// replay floor, and importing them lifts the transaction's
		// outbound floor past every one.
		if ch, err := keystore.LoadEvidence(*state, *txn, evidence.RoleOwn, evidence.KindAuditChallenge); err == nil {
			client.ImportEvidence(*txn, evidence.RoleOwn, ch)
		}
		if resp, err := keystore.LoadEvidence(*state, *txn, evidence.RolePeer, evidence.KindAuditResponse); err == nil {
			client.ImportEvidence(*txn, evidence.RolePeer, resp)
		}
		conn := dial(*server)
		defer conn.Close()
		rep, err := client.AuditObject(ctx, conn, *txn, *auditN)
		// Persist the latest challenge whatever the outcome: on failure
		// it is the conviction material arbiterd reads, and its recorded
		// sequence keeps the next audit run from reusing numbers the
		// provider has already seen.
		if ch, cerr := client.EvidenceByKind(*txn, evidence.RoleOwn, evidence.KindAuditChallenge); cerr == nil {
			saveEvidence(*state, *txn, evidence.RoleOwn, ch)
		}
		// The response too, pass or fail: a provider-signed answer that
		// fails the proof convicts immediately at arbitration — no need
		// to wait out the challenge deadline the way silence does.
		if resp, rerr := client.EvidenceByKind(*txn, evidence.RolePeer, evidence.KindAuditResponse); rerr == nil {
			saveEvidence(*state, *txn, evidence.RolePeer, resp)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrclient: AUDIT FAILED for %s: %v\n", *txn, err)
			fmt.Fprintln(os.Stderr, "the journaled audit evidence is conviction material for arbitration")
			os.Exit(3)
		}
		fmt.Printf("audit of %s passed: %d/%d leaves proved against committed root %s in %v\n",
			*txn, len(rep.Response.Entries), len(rep.Challenge.Indices), rep.Root, rep.Latency.Round(time.Millisecond))

	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nrclient {upload|download|abort|resolve|audit} [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nrclient:", err)
	os.Exit(1)
}

func dial(addr string) transport.Conn {
	conn, err := transport.DialTCP(addr)
	if err != nil {
		fail(err)
	}
	return conn
}

func buildClient(state, name, providerName, ttpName string, timeout time.Duration) (*core.Client, error) {
	id, err := keystore.LoadIdentity(state, name)
	if err != nil {
		return nil, err
	}
	world, err := keystore.LoadWorld(state)
	if err != nil {
		return nil, err
	}
	return core.NewClient(providerName, ttpName,
		core.WithIdentity(id),
		core.WithCAPublicKey(world.CAPublicKey()),
		core.WithDirectory(world.Lookup),
		core.WithCounters(&metrics.Counters{}),
		core.WithResponseTimeout(timeout),
	)
}

func saveEvidence(state, txn string, role evidence.Role, ev *evidence.Evidence) {
	if ev == nil {
		return
	}
	if err := keystore.SaveEvidence(state, txn, role, ev); err != nil {
		fmt.Fprintln(os.Stderr, "nrclient: archiving evidence:", err)
	}
}
