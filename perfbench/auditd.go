package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dagguise/internal/audit"
	"dagguise/internal/auditd"
	"dagguise/internal/config"
	"dagguise/internal/eval"
	"dagguise/internal/rng"
)

// auditd-ingest: the only request-serving path. A closed loop of
// auditdClients clients, each sending its next batch only after the last
// one returned, against a two-shard service; the input is the dagchaos
// -target default mix: real insecure and DAGguise tap streams plus
// alternating leaky and clean synthetic tenants.
const (
	auditdClients      = 2
	auditdShards       = 2
	auditdBatch        = 25
	auditdProbes       = 300
	auditdSynthTenants = 16
	auditdSynthPairs   = 150
	// auditdVerdictsEvery is how many batches a client sends between
	// reads of GET /v1/verdicts.
	auditdVerdictsEvery = 40
)

// tenantStream is one tenant's observations in wire order.
type tenantStream struct {
	name string
	obs  []auditd.Observation
}

// interleave zips the two secret classes into dense sequence numbers, the
// pairing dagchaos -target uses.
func interleave(tenant string, s0, s1 []audit.Sample) []auditd.Observation {
	n := min(len(s0), len(s1))
	out := make([]auditd.Observation, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out,
			auditd.Observation{Tenant: tenant, Seq: uint64(2 * i), Secret: 0, Cycle: s0[i].Cycle, Value: s0[i].Value},
			auditd.Observation{Tenant: tenant, Seq: uint64(2*i + 1), Secret: 1, Cycle: s1[i].Cycle, Value: s1[i].Value})
	}
	return out
}

// synthStream is a synthetic tenant as dagchaos -synth-tenants makes it:
// even indices leak (the two classes sit ~300 cycles apart), odd ones are
// clean.
func synthStream(idx int, seed int64) tenantStream {
	kind := "clean"
	if idx%2 == 0 {
		kind = "leaky"
	}
	name := fmt.Sprintf("synth-%s-%d", kind, idx)
	r := rng.New(rng.Derive(seed, name))
	s0 := make([]audit.Sample, auditdSynthPairs)
	s1 := make([]audit.Sample, auditdSynthPairs)
	for i := range s0 {
		base := uint64(100 + r.Intn(16))
		alt := uint64(100 + r.Intn(16))
		if kind == "leaky" {
			alt += 300
		}
		s0[i] = audit.Sample{Cycle: uint64(10 * i), Value: base}
		s1[i] = audit.Sample{Cycle: uint64(10*i + 5), Value: alt}
	}
	return tenantStream{name: name, obs: interleave(name, s0, s1)}
}

// buildStreams collects the tap streams of the insecure and DAGguise
// schemes and adds the synthetic tenants; it returns the streams and the
// time the tap collection took.
func buildStreams(seed int64) ([]tenantStream, time.Duration, error) {
	start := time.Now()
	var out []tenantStream
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		s0, s1, err := eval.AuditStreams(scheme, auditdProbes, seed)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, tenantStream{name: scheme.String(), obs: interleave(scheme.String(), s0, s1)})
	}
	taps := time.Since(start)
	for i := 0; i < auditdSynthTenants; i++ {
		out = append(out, synthStream(i, seed))
	}
	return out, taps, nil
}

// timedHandler sums the time the service's handler spends on ingest
// requests.
type timedHandler struct {
	h  http.Handler
	ns atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	if r.URL.Path == "/v1/ingest" {
		t.ns.Add(int64(time.Since(start)))
	}
}

// timedTransport sums the client-side round trips of ingest requests.
type timedTransport struct {
	rt http.RoundTripper
	ns atomic.Int64
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.rt.RoundTrip(r)
	if r.URL.Path == "/v1/ingest" {
		t.ns.Add(int64(time.Since(start)))
	}
	return resp, err
}

// clientLoad is one client's share of a pass.
type clientLoad struct {
	rtts, verdicts  []float64 // ms
	accepted, bad   int
	batches         int
	shed, retries   int
	err             error
	failureExamples []string
}

// pass is one ingest campaign against a fresh service.
type pass struct {
	setup    time.Duration // streams, service start
	taps     time.Duration // tap-stream collection inside setup
	cost     opCost        // the closed-loop ingest phase
	loads    []clientLoad
	verdicts []byte
	handler  time.Duration // traced only
	rt       time.Duration // traced only
}

// runPass sets up a service, drives the closed loop, flushes every tenant
// and fetches the verdicts.
func runPass(seed int64, traced bool, rss *rssSampler) (*pass, error) {
	p := &pass{}
	start := time.Now()
	streams, taps, err := buildStreams(seed)
	if err != nil {
		return nil, err
	}
	svc, err := auditd.New(auditd.Config{Shards: auditdShards})
	if err != nil {
		return nil, err
	}
	th := &timedHandler{h: svc.Handler()}
	handler := th.h
	if traced {
		handler = th
	}
	srv := httptest.NewServer(handler)
	defer func() {
		srv.Close()
		_ = svc.Close(context.Background())
	}()
	p.setup, p.taps = time.Since(start), taps

	ctx := context.Background()
	transports := make([]*timedTransport, auditdClients)
	clients := make([]*auditd.Client, auditdClients)
	for i := range clients {
		var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 2}
		if traced {
			transports[i] = &timedTransport{rt: rt}
			rt = transports[i]
		}
		clients[i] = &auditd.Client{Base: srv.URL, HTTP: &http.Client{Transport: rt},
			BatchSize: auditdBatch, Seed: rng.Derive(seed, fmt.Sprintf("client-%d", i))}
	}
	p.loads = make([]clientLoad, auditdClients)
	var wg sync.WaitGroup
	p.cost, _ = measure(rss, func() error {
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				drive(ctx, clients[i], streams, i, &p.loads[i])
			}(i)
		}
		wg.Wait()
		return nil
	})
	for i := range p.loads {
		if p.loads[i].err != nil {
			return nil, p.loads[i].err
		}
	}
	if traced {
		p.handler = time.Duration(th.ns.Load())
		for _, t := range transports {
			p.rt += time.Duration(t.ns.Load())
		}
	}
	for _, st := range streams {
		if _, err := clients[0].Flush(ctx, st.name); err != nil {
			return nil, err
		}
	}
	raw, _, err := clients[0].Verdicts(ctx)
	if err != nil {
		return nil, err
	}
	p.verdicts = raw
	return p, nil
}

// drive sends client idx's tenants (every auditdClients-th stream) one
// batch at a time, reading the verdicts every auditdVerdictsEvery batches.
// A batch fails when it needed a retry, was shed, or was not fully
// accepted.
func drive(ctx context.Context, c *auditd.Client, streams []tenantStream, idx int, l *clientLoad) {
	for s := idx; s < len(streams); s += auditdClients {
		obs := streams[s].obs
		for lo := 0; lo < len(obs); lo += auditdBatch {
			batch := obs[lo:min(lo+auditdBatch, len(obs))]
			start := time.Now()
			res, err := c.Stream(ctx, batch)
			l.rtts = append(l.rtts, float64(time.Since(start))/1e6)
			l.batches++
			l.accepted += res.Accepted
			l.shed += res.Shed
			l.retries += res.Retries
			if err != nil || res.Shed > 0 || res.Retries > 0 || res.Accepted != len(batch) {
				l.bad++
				if len(l.failureExamples) < 3 {
					l.failureExamples = append(l.failureExamples,
						fmt.Sprintf("%s batch at seq %d: %+v, err %v", streams[s].name, batch[0].Seq, res, err))
				}
			}
			if l.batches%auditdVerdictsEvery == 0 {
				start := time.Now()
				if _, _, err := c.Verdicts(ctx); err != nil {
					l.err = err
					return
				}
				l.verdicts = append(l.verdicts, float64(time.Since(start))/1e6)
			}
		}
	}
}

// maxCleanFlagged is how many clean synthetic tenants may exceed the
// leakage budget. Their two secret classes come from one distribution, so
// a window exceeds by chance at about the auditor's false-positive rate,
// most often the short flushed final window: one of the first ten seeds
// tried flags one of the eight. The DAGguise tenant's classes are
// identical, so it can never be flagged by chance.
const maxCleanFlagged = 2

// checkVerdicts applies the seed-independent gate: insecure and every
// synthetic leaky tenant leak, DAGguise stays clean, at most
// maxCleanFlagged clean synthetic tenants are flagged, and no tenant is
// quarantined.
func checkVerdicts(raw []byte, streams int) error {
	var vr auditd.VerdictsResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		return fmt.Errorf("decode verdicts: %w", err)
	}
	if len(vr.Tenants) != streams {
		return fmt.Errorf("%d tenants have verdicts, want %d", len(vr.Tenants), streams)
	}
	var cleanFlagged []string
	for _, v := range vr.Tenants {
		leak := v.Tenant == config.Insecure.String() || strings.HasPrefix(v.Tenant, "synth-leaky-")
		switch {
		case v.Quarantined:
			return fmt.Errorf("tenant %s is quarantined: %s", v.Tenant, v.QuarantineReason)
		case leak && v.WithinBudget:
			return fmt.Errorf("tenant %s should leak but stayed within budget", v.Tenant)
		case !leak && !v.WithinBudget && !strings.HasPrefix(v.Tenant, "synth-clean-"):
			return fmt.Errorf("tenant %s should be clean but exceeded the budget at window %d", v.Tenant, v.FirstExceeded)
		case !leak && !v.WithinBudget:
			cleanFlagged = append(cleanFlagged, v.Tenant)
		}
	}
	if len(cleanFlagged) > maxCleanFlagged {
		return fmt.Errorf("clean synthetic tenants %v exceeded the budget; at most %d may by chance",
			cleanFlagged, maxCleanFlagged)
	}
	return nil
}

// auditdRun accumulates a run's passes.
type auditdRun struct {
	e                        *env
	o                        *outcome
	golden                   []byte
	setups, rates, walls     []float64
	rtts, verdictMs          []float64 // ms
	costs                    []opCost
	shed, retries            int
	handler, transport, taps time.Duration
}

// record folds one pass into the run and checks its verdicts.
func (r *auditdRun) record(p *pass) {
	r.setups = append(r.setups, p.setup.Seconds())
	r.walls = append(r.walls, p.cost.wall.Seconds())
	r.handler += p.handler
	r.transport += p.rt - p.handler
	r.taps += p.taps
	var accepted, batches, bad int
	for _, l := range p.loads {
		accepted += l.accepted
		batches += l.batches
		bad += l.bad
		r.shed += l.shed
		r.retries += l.retries
		r.rtts = append(r.rtts, l.rtts...)
		r.verdictMs = append(r.verdictMs, l.verdicts...)
		for _, f := range l.failureExamples {
			r.e.logf("failed batch: %s", f)
		}
	}
	r.o.op(batches, bad)
	r.rates = append(r.rates, float64(accepted)/p.cost.wall.Seconds())
	c := p.cost
	c.bytes /= uint64(batches)
	c.allocs /= uint64(batches)
	r.costs = append(r.costs, c)
	if err := checkVerdicts(p.verdicts, 2+auditdSynthTenants); err != nil {
		r.o.check("%v", err)
	}
	if r.golden == nil {
		r.golden = p.verdicts
	}
	if !bytes.Equal(p.verdicts, r.golden) {
		r.o.check("verdicts differ from the golden (or from the run's first pass):\n%s", p.verdicts)
	}
}

// passes runs passes for budget.
func (r *auditdRun) passes(budget time.Duration, traced bool) error {
	return repeat(budget, func() error {
		p, err := runPass(r.e.seed, traced, r.e.rss)
		if err != nil {
			return err
		}
		r.record(p)
		return nil
	})
}

func runAuditd(e *env) (*outcome, error) {
	r := &auditdRun{e: e, o: newOutcome()}
	if e.seed == defaultSeed {
		var err error
		if r.golden, err = e.golden("auditd-ingest-seed1.json"); err != nil {
			return nil, err
		}
	}
	if !e.trace {
		if err := r.passes(e.budget, false); err != nil {
			return nil, err
		}
		r.o.metrics["setup_s"] = median(r.setups)
		r.o.metrics["work_per_s"] = median(r.rates)
		r.o.metrics["op_p50_ms"] = median(r.rtts)
		setCosts(r.o, r.costs)
		return r.o, nil
	}
	return r.o, traceAuditd(r)
}

// traceAuditd runs untraced passes for half the budget, then passes with
// the handler and transport timers for the other half under a pprof
// profile, then replays the streams through a standalone auditor, and
// sets the per-layer metrics as means per traced pass.
func traceAuditd(r *auditdRun) error {
	e, o, w := r.e, r.o, "auditd-ingest."
	if err := r.passes(e.budget/2, false); err != nil {
		return err
	}
	// The p99 needs 100*minTail batches; a short budget runs extra passes.
	for len(r.rtts) < 100*minTail {
		if err := r.passes(0, false); err != nil {
			return err
		}
	}
	p99, err := percentile(r.rtts, 99)
	if err != nil {
		return fmt.Errorf("batch p99: %w", err)
	}
	o.metrics[w+"auditd.batch_p99_ms"] = p99
	o.metrics[w+"auditd.batches"] = float64(len(r.rtts))
	untraced := median(r.walls)

	r.walls, r.taps = nil, 0
	prof, err := startProfile(e.work)
	if err != nil {
		return err
	}
	if err := r.passes(e.budget/2, true); err != nil {
		return err
	}
	gc, err := prof.stop()
	if err != nil {
		return err
	}
	streams, _, err := buildStreams(e.seed)
	if err != nil {
		return err
	}
	push, windows, err := replayAudit(streams)
	if err != nil {
		return err
	}

	n := float64(len(r.walls))
	o.metrics[w+"auditd.handler_s"] = r.handler.Seconds() / n
	o.metrics[w+"http.transport_s"] = r.transport.Seconds() / n
	o.metrics[w+"audit.push_s"] = push.Seconds()
	o.metrics[w+"audit.windows"] = float64(windows)
	o.metrics[w+"auditd.verdicts_p50_ms"] = median(r.verdictMs)
	o.metrics[w+"auditd.shed"] = float64(r.shed)
	o.metrics[w+"auditd.retries"] = float64(r.retries)
	o.metrics[w+"attack.streams_s"] = r.taps.Seconds() / n
	o.metrics[w+"runtime.gc_s"] = gc / n
	o.metrics[w+"bench.trace_overhead"] = overhead(median(r.walls), untraced)
	return prof.fold(o, "auditd-ingest")
}

// replayAudit feeds every stream through a standalone auditor configured
// as the service configures a tenant's, handing off windows and compacting
// after each batch and flushing the final partial window, and returns the
// time spent and the windows audited.
func replayAudit(streams []tenantStream) (time.Duration, int, error) {
	start := time.Now()
	windows := 0
	for _, st := range streams {
		cfg := audit.DefaultConfig()
		cfg.Seed = rng.Derive(cfg.Seed, st.name)
		a, err := audit.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		for i, ob := range st.obs {
			if err := a.Push(ob.Secret, audit.Sample{Cycle: ob.Cycle, Value: ob.Value}); err != nil {
				return 0, 0, err
			}
			if (i+1)%auditdBatch == 0 || i == len(st.obs)-1 {
				windows += len(a.TakeWindows())
				a.Compact()
			}
		}
		if _, err := a.Flush(); err == nil {
			windows++
		}
	}
	return time.Since(start), windows, nil
}
