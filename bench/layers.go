package main

import (
	"strings"

	"repro/internal/audit"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of the system sees, each with the share
// of the parent's median by which it may get worse. Every workload
// reports every one of them and none is ever zero, which is why the
// issue's per-kind latencies are per-layer metrics (core.<kind>_p50_ms)
// and its fail_ratio is ok_ratio. Throughput and CPU time per operation
// are per-layer metrics too (bench.ops_s, bench.cpu_ms_per_op): they are
// means over a round, and on the builder's host no statistic of them
// repeated within a tenth (README, "Host weather").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"p50_ms", "ms", "lower", 0.10},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"privkey_ops_per_op", "count", "lower", 0.02},
	{"journal_kb_per_op", "KB", "lower", 0.02},
	{"fsyncs_per_op", "count", "lower", 0.05},
	{"wire_kb_per_op", "KB", "lower", 0.02},
	{"ok_ratio", "ratio", "higher", 0.001},
}

// perLayerDefs builds the per-layer list: the fixed ones, then the
// three per-kind families.
func perLayerDefs() []metricDef {
	lower := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	var d []metricDef
	d = append(d, lower("us", "transport.send_us", "transport.recv_wait_us", "transport.loop_us", "transport.tcp_rtt_us",
		"wire.frame_us",
		"cryptoutil.sign_us", "cryptoutil.verify_us", "cryptoutil.seal_us", "cryptoutil.unseal_us",
		"evidence.build_us", "evidence.open_cold_us", "evidence.open_cached_us",
		"merkle.build_us", "merkle.prove_verify_us", "audit.respond_us", "audit.verify_us",
		"core.client_self_us", "core.handle_us", "core.handle_self_us", "core.recover_us_per_record",
		"wal.append_us", "replica.quorum_wait_us", "storage.put_us", "storage.get_us",
		"archive.get_us", "arbitrator.decide_us", "ttp.resolve_handle_us", "host.privkey_us")...)
	d = append(d, lower("count", "transport.frames_per_op",
		"cryptoutil.sign_per_op", "cryptoutil.verify_per_op", "cryptoutil.seal_per_op", "cryptoutil.unseal_per_op", "cryptoutil.hash_per_op",
		"audit.store_reads_per_audit", "core.msgs_per_op",
		"wal.appends_per_op", "wal.fsyncs_per_append",
		"replica.replicate_calls_per_op", "replica.acks_per_append", "replica.lag_records_end",
		"storage.puts_per_op", "storage.gets_per_op", "archive.appends_per_op", "ttp.msgs_per_resolve",
		"bench.gc_per_round")...)
	d = append(d, lower("ms", "core.checkpoint_ms", "wal.open_ms", "host.calib_ms", "bench.cpu_ms_per_op")...)
	d = append(d, lower("B", "wal.bytes_per_append", "archive.bytes_per_session")...)
	d = append(d, lower("%", "core.unattributed_pct", "host.calib_spread_pct", "host.privkey_spread_pct", "bench.trace_overhead_pct")...)
	d = append(d, lower("ratio", "shard.msgs_skew")...)
	d = append(d, lower("MB", "bench.state_mb_end")...)
	d = append(d,
		metricDef{Name: "cryptoutil.digest_pair_mb_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "evidence.verify_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "bench.rounds", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.ops_s", Unit: "1/s", Better: "higher"})
	for _, k := range kindNames {
		d = append(d,
			metricDef{Name: "core." + k + "_p50_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "core." + k + "_tail_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "core." + k + "_samples", Unit: "count", Better: "higher"})
	}
	return d
}

// us converts span nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// seams is what the spans of the traced rounds say.
type seams struct {
	// Per operation of the headline kind.
	send, recvWait, loop, clientSelf, handle, handleSelf, ttpHandle []float64
	// Per span, over every operation.
	put, get, replicate, archiveGet, decide []float64
	// Totals over every operation, for the attribution.
	opNs, selfNs float64
	// Audit operations and the store reads under them.
	audits, auditReads int
}

// analyze walks each operation's span tree. A layer's self time is its
// span minus the part its child spans cover.
func analyze(spans []span, headline string) seams {
	children := make(map[int64][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	var s seams
	var walk func(i int, f func(*span, float64))
	walk = func(i int, f func(*span, float64)) {
		sp := &spans[i]
		self := float64(sp.dur())
		for _, c := range children[sp.ID] {
			self -= float64(spans[c].dur())
			walk(c, f)
		}
		f(sp, self)
	}
	for i := range spans {
		root := &spans[i]
		if root.Parent != 0 || !strings.HasPrefix(root.Name, "op.") || root.End == 0 {
			continue
		}
		var send, recv, top, handle, handleSelf, ttpHandle float64
		reads := 0
		walk(i, func(sp *span, self float64) {
			d := float64(sp.dur())
			switch sp.Name {
			case spanSend:
				send += d
			case spanRecvWait:
				recv += d
			case spanHandle:
				handle += d
				handleSelf += self
				s.selfNs += self
			case spanTTPHandle:
				ttpHandle += d
				s.selfNs += self
			case spanPut:
				s.put = append(s.put, us(d))
			case spanGet:
				s.get = append(s.get, us(d))
				reads++
			case spanReplicate:
				s.replicate = append(s.replicate, us(d))
			case spanArchive:
				s.archiveGet = append(s.archiveGet, us(d))
			case spanDecide:
				s.decide = append(s.decide, us(d))
			}
			if sp.Parent == root.ID && (sp.Name == spanHandle || sp.Name == spanTTPHandle) {
				top += d
			}
		})
		op := float64(root.dur())
		s.opNs += op
		s.selfNs += op - send - recv
		if root.Name == "op.audit" {
			s.audits++
			s.auditReads += reads
		}
		if root.Name != "op."+headline {
			continue
		}
		s.send = append(s.send, us(send))
		s.recvWait = append(s.recvWait, us(recv))
		s.loop = append(s.loop, us(recv-top))
		s.clientSelf = append(s.clientSelf, us(op-send-recv))
		s.handle = append(s.handle, us(handle))
		s.handleSelf = append(s.handleSelf, us(handleSelf))
		s.ttpHandle = append(s.ttpHandle, us(ttpHandle))
	}
	return s
}

// perLayer computes every per-layer metric of a traced run. A layer
// that does no work on this workload reports zero.
func perLayer(e *env, tr *tracer, rounds []measured, res *result) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range perLayerDefs() {
		out[d.Name] = 0
	}
	if err := runProbes(e, e.t.dir, out); err != nil {
		res.Failed++
		res.Failures = append(res.Failures, "probes: "+err.Error())
	}

	// Counts, over every measured round: tracing does not change them.
	total := make(counts)
	var lat [nKinds][]float64
	var p50 [nKinds][]float64
	var on, off, cpu, calib, privUs, gcs, ckpt []float64
	ops := 0
	for _, m := range rounds {
		total.addDiff(nil, m.rec.c)
		ops += m.rec.ops
		for k := range lat {
			lat[k] = append(lat[k], m.rec.lat[k]...)
			if len(m.rec.lat[k]) > 0 {
				p50[k] = append(p50[k], median(m.rec.lat[k]))
			}
		}
		if m.sum.Traced {
			on = append(on, m.sum.OpsPerSec)
		} else {
			off = append(off, m.sum.OpsPerSec)
			cpu = append(cpu, m.sum.CPUMsPerOp)
		}
		calib = append(calib, m.sum.CalibMs)
		privUs = append(privUs, ratio(m.sum.PrivKeyMs*1000, float64(m.sum.PrivKeyOps)))
		gcs = append(gcs, float64(m.sum.GCCycles))
		ckpt = append(ckpt, m.sum.CheckpointMs)
	}
	n := float64(ops)
	perOp := func(name string) float64 { return ratio(float64(total[name]), n) }
	for k, name := range kindNames {
		out["core."+name+"_p50_ms"] = quiet(p50[k])
		out["core."+name+"_tail_ms"] = tail(lat[k])
		out["core."+name+"_samples"] = float64(len(lat[k]))
	}
	signs, verifies := float64(total.party("sign_ops")), float64(total.party("verify_ops"))
	seals, unseals := float64(total.party("encrypt_ops")), float64(total.party("decrypt_ops"))
	out["cryptoutil.sign_per_op"] = ratio(signs, n)
	out["cryptoutil.verify_per_op"] = ratio(verifies, n)
	out["cryptoutil.seal_per_op"] = ratio(seals, n)
	out["cryptoutil.unseal_per_op"] = ratio(unseals, n)
	out["cryptoutil.hash_per_op"] = ratio(float64(total.party("hash_ops")), n)
	out["evidence.verify_cache_hit_ratio"] = ratio(float64(total[cHits]), float64(total[cHits]+total[cMisses]))
	out["transport.frames_per_op"] = perOp(cFrames)
	out["core.msgs_per_op"] = perOp("server_msgs_total")
	out["wal.appends_per_op"] = perOp(cAppends)
	out["wal.fsyncs_per_append"] = ratio(float64(total[cFsyncs]), float64(total[cAppends]))
	out["wal.bytes_per_append"] = ratio(float64(total[cJournal]), float64(total[cAppends]))
	out["storage.puts_per_op"] = perOp(cPuts)
	out["storage.gets_per_op"] = perOp(cGets)
	out["replica.replicate_calls_per_op"] = perOp(cRepl)
	var acks int64
	for _, v := range total.family("replica_shard", "_acks_total") {
		acks += v
	}
	out["replica.acks_per_append"] = ratio(float64(acks), float64(total[cRepl]))
	for _, g := range e.t.groups {
		out["replica.lag_records_end"] += float64(g.Lag())
	}
	if each := total.family("shard_msgs_total", ""); len(each) > 0 {
		var max, sum float64
		for _, v := range each {
			sum += float64(v)
			if float64(v) > max {
				max = float64(v)
			}
		}
		out["shard.msgs_skew"] = ratio(max, sum/float64(len(each)))
	}
	if resolves := float64(len(lat[kResolve])); resolves > 0 {
		out["ttp.msgs_per_resolve"] = ratio(float64(total.party("ttp_msgs")), resolves)
	}
	if rec := float64(len(lat[kRecover])); rec > 0 && e.recovered > 0 {
		out["core.recover_us_per_record"] = quiet(p50[kRecover]) * 1000 / float64(e.recovered)
	}

	// The archive fills at checkpoints, which no timed section covers,
	// so its rates come from the whole measured phase.
	if sessions := float64(e.phase[cArchived]); sessions > 0 {
		out["archive.appends_per_op"] = ratio(sessions, float64(e.phaseOps))
		out["archive.bytes_per_session"] = ratio(float64(e.phaseArchiveBytes), sessions)
	}
	out["bench.state_mb_end"] = float64(rounds[len(rounds)-1].sum.StateBytes) / (1 << 20)
	out["bench.gc_per_round"] = median(gcs)
	out["bench.rounds"] = float64(len(rounds))
	out["bench.ops_s"] = median(off)
	out["bench.cpu_ms_per_op"] = median(cpu)
	out["bench.trace_overhead_pct"] = 100 * ratio(median(off)-median(on), median(off))
	out["core.checkpoint_ms"] = median(ckpt)
	out["host.calib_ms"] = median(calib)
	out["host.calib_spread_pct"] = 100 * ratio(quantile(calib, 0.75)-quantile(calib, 0.25), median(calib))
	out["host.privkey_us"] = median(privUs)
	out["host.privkey_spread_pct"] = 100 * ratio(quantile(privUs, 0.75)-quantile(privUs, 0.25), median(privUs))

	// Seams, from the rounds that recorded.
	s := analyze(tr.spans, kindNames[e.wl.headline])
	out["transport.send_us"] = median(s.send)
	out["transport.recv_wait_us"] = median(s.recvWait)
	out["transport.loop_us"] = median(s.loop)
	out["core.client_self_us"] = median(s.clientSelf)
	out["core.handle_us"] = median(s.handle)
	out["core.handle_self_us"] = median(s.handleSelf)
	out["ttp.resolve_handle_us"] = median(s.ttpHandle)
	out["storage.put_us"] = median(s.put)
	out["storage.get_us"] = median(s.get)
	out["replica.quorum_wait_us"] = median(s.replicate)
	out["archive.get_us"] = median(s.archiveGet)
	out["arbitrator.decide_us"] = median(s.decide)
	out["audit.store_reads_per_audit"] = ratio(float64(s.auditReads), float64(s.audits))

	// Attribution: of the time the client and the handlers spent in
	// their own code, how much do count x probe products not explain?
	// Informational; ROADMAP's 10 % gate belongs to in-program spans.
	pairUs := ratio(float64(e.wl.size)/(1<<20), out["cryptoutil.digest_pair_mb_s"]) * 1e6
	treeUs := out["merkle.build_us"] * float64(e.wl.size) / float64(256*audit.ChunkSize)
	uploads, downloads, audits := float64(len(lat[kUpload])), float64(len(lat[kDownload])), float64(len(lat[kAudit]))
	explained := signs*out["cryptoutil.sign_us"] + verifies*out["cryptoutil.verify_us"] +
		seals*out["cryptoutil.seal_us"] + unseals*out["cryptoutil.unseal_us"] +
		float64(total[cAppends])*out["wal.append_us"] +
		(2*uploads+2*downloads)*pairUs + (uploads+audits)*treeUs
	// Counts cover every measured round, spans only the recorded ones.
	tracedOps := 0
	for _, m := range rounds {
		if m.sum.Traced {
			tracedOps += m.rec.ops
		}
	}
	explained *= ratio(float64(tracedOps), n)
	out["core.unattributed_pct"] = 100 * ratio(us(s.selfNs)-explained, us(s.opNs))
	return out
}
