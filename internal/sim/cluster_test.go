package sim

import (
	"encoding/json"
	"fmt"
	"testing"

	"dagguise/internal/config"
)

func clusterCfg(t *testing.T, channels, domains int, scheme config.Scheme) config.MultiChannelConfig {
	t.Helper()
	cfg := config.DefaultMultiChannel(channels, domains, scheme)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestClusterDeterministic(t *testing.T) {
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		cfg := clusterCfg(t, 2, 12, scheme)
		run := func() (string, ClusterCounters) {
			c, err := NewCluster(cfg, 0, 2, 42, 11)
			if err != nil {
				t.Fatal(err)
			}
			c.Run(12000)
			return c.AuditDigest(), c.Counters()
		}
		d1, c1 := run()
		d2, c2 := run()
		if d1 != d2 {
			t.Fatalf("%s: identical runs digest differently: %s vs %s", scheme, d1, d2)
		}
		b1, _ := json.Marshal(c1)
		b2, _ := json.Marshal(c2)
		if string(b1) != string(b2) {
			t.Fatalf("%s: identical runs count differently:\n%s\n%s", scheme, b1, b2)
		}
		if c1.Issued == 0 || c1.Completed == 0 || c1.TapSamples == 0 {
			t.Fatalf("%s: cluster did no observable work: %+v", scheme, c1)
		}
	}
}

// TestClusterNonInterference is the headline security property at cluster
// scale: twin runs differing only in the protected tenants' secret must be
// indistinguishable to the unprotected tenants under DAGguise, and
// distinguishable under the insecure baseline (otherwise the observable is
// too weak to mean anything).
func TestClusterNonInterference(t *testing.T) {
	digest := func(scheme config.Scheme, secret int) string {
		cfg := clusterCfg(t, 2, 12, scheme)
		c, err := NewCluster(cfg, 0, 2, 1234, secret)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(20000)
		return c.AuditDigest()
	}
	if a, b := digest(config.DAGguise, 11), digest(config.DAGguise, 12); a != b {
		t.Errorf("DAGguise leaks: secret 11 digest %s != secret 12 digest %s", a, b)
	}
	if a, b := digest(config.Insecure, 11), digest(config.Insecure, 12); a == b {
		t.Errorf("insecure baseline did not leak; the attacker observable is too coarse")
	}
}

// TestClusterVictimStreamSecretIndependent pins the construction that makes
// the twin comparison sound: the protected tenants' rng positions (and so
// their address streams) do not depend on the secret, only their timing.
func TestClusterVictimStreamSecretIndependent(t *testing.T) {
	cfg := clusterCfg(t, 2, 8, config.Insecure)
	c, err := NewCluster(cfg, 0, 2, 7, 11)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(15000)
	// The i-th generated request of a tenant must consume exactly 2 draws
	// (gap jitter + address) regardless of the secret's bit pattern, so a
	// victim's address stream is a pure function of (seed, request index).
	for _, tn := range c.tenants {
		if tn.generated > 0 && tn.rng.State().Draws != 2*tn.generated {
			t.Fatalf("tenant %d: %d draws for %d requests; rng cost must be exactly 2 draws/request",
				tn.index, tn.rng.State().Draws, tn.generated)
		}
	}
}

func TestClusterCheckpointRoundTrip(t *testing.T) {
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		cfg := clusterCfg(t, 2, 10, scheme)
		ref, err := NewCluster(cfg, 0, 2, 99, 11)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(16000)

		half, err := NewCluster(cfg, 0, 2, 99, 11)
		if err != nil {
			t.Fatal(err)
		}
		half.Run(8000)
		st, err := half.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var decoded ClusterState
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		resumed, err := NewCluster(cfg, 0, 2, 99, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.RestoreState(&decoded); err != nil {
			t.Fatal(err)
		}
		resumed.Run(8000)

		if got, want := resumed.AuditDigest(), ref.AuditDigest(); got != want {
			t.Fatalf("%s: resumed digest %s != uninterrupted %s", scheme, got, want)
		}
		refSt, err := ref.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		resSt, err := resumed.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		refBlob, _ := json.Marshal(refSt)
		resBlob, _ := json.Marshal(resSt)
		if string(refBlob) != string(resBlob) {
			t.Fatalf("%s: resumed final state differs from uninterrupted run", scheme)
		}
	}
}

// TestClusterCheckpointBytesDeterministic guards the byte stability of the
// serialized state itself (satellite: sorted keys everywhere a map feeds an
// exported artifact).
func TestClusterCheckpointBytesDeterministic(t *testing.T) {
	cfg := clusterCfg(t, 2, 10, config.DAGguise)
	snap := func() []byte {
		c, err := NewCluster(cfg, 0, 2, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(9000)
		st, err := c.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := snap(), snap(); string(a) != string(b) {
		t.Fatal("identical cluster runs serialize to different bytes")
	}
}

func TestClusterChannelSlice(t *testing.T) {
	cfg := clusterCfg(t, 4, 16, config.Insecure)
	c, err := NewCluster(cfg, 1, 3, 21, 11)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(8000)
	counters := c.Counters()
	if counters.Remote == 0 {
		t.Fatal("a half-slice cluster should route some traffic remotely")
	}
	if len(counters.ChannelIssued) != 2 {
		t.Fatalf("slice [1,3) should own 2 channels, counters cover %d", len(counters.ChannelIssued))
	}
	if counters.ChannelIssued[0] == 0 || counters.ChannelIssued[1] == 0 {
		t.Fatalf("both owned channels should see traffic: %v", counters.ChannelIssued)
	}
	if _, err := NewCluster(cfg, 3, 3, 21, 11); err == nil {
		t.Fatal("empty channel slice accepted")
	}
	if _, err := NewCluster(cfg, 0, 5, 21, 11); err == nil {
		t.Fatal("out-of-range channel slice accepted")
	}
}

func TestClusterRejectsUnsupportedScheme(t *testing.T) {
	cfg := clusterCfg(t, 2, 8, config.FSBTA)
	if _, err := NewCluster(cfg, 0, 2, 1, 11); err == nil {
		t.Fatal("cluster accepted a scheme it does not implement")
	}
}

// TestClusterCheckpointInsideSkippedSpan cuts a checkpoint at a cycle the
// event-driven paths are jumping over: no tenant is due, and some
// channel holds queued work its scheduler will not look at yet. The
// calendar and the wake cycles are not part of the state, so the restore
// must rebuild the same future from scratch: restored into a fresh
// cluster and into one that has already run elsewhere, the continuation
// must end in the same state bytes and audit digest as the uninterrupted
// run.
func TestClusterCheckpointInsideSkippedSpan(t *testing.T) {
	const total = 16000
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		cfg := clusterCfg(t, 2, 10, scheme)
		build := func() *Cluster {
			c, err := NewCluster(cfg, 0, 2, 31, 11)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		encode := func(c *Cluster) []byte {
			st, err := c.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		ref := build()
		ref.Run(total)
		wantState, wantDigest := encode(ref), ref.AuditDigest()
		cut := build()
		for cut.Run(3000); !skipping(cut); cut.Tick() {
			if cut.Now() >= total/2 {
				t.Fatalf("%s: no cycle inside a skipped span before %d", scheme, cut.Now())
			}
		}
		blob := encode(cut)

		used := build()
		used.Run(5000)
		for _, tc := range []struct {
			name string
			c    *Cluster
		}{{"fresh", build()}, {"already-run", used}} {
			name, c := tc.name, tc.c
			var st ClusterState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			if err := c.RestoreState(&st); err != nil {
				t.Fatal(err)
			}
			c.Run(total - c.Now())
			if got := encode(c); string(got) != string(wantState) {
				t.Fatalf("%s, %s cluster: state after restore at cycle %d differs from the uninterrupted run", scheme, name, st.Now)
			}
			if got := c.AuditDigest(); got != wantDigest {
				t.Fatalf("%s, %s cluster: digest %s, want %s", scheme, name, got, wantDigest)
			}
		}
		cut.Run(total - cut.Now())
		if got := encode(cut); string(got) != string(wantState) {
			t.Fatalf("%s: run that was checkpointed differs from the uninterrupted run", scheme)
		}
	}
}

// tickEveryCycle advances c one cycle the way the machine ran before its
// tenant calendar and shaper wakes: the generator loop walks every
// tenant in index order, and every shaper ticks. It is the reference the
// event-driven Tick must match. The calendar is emptied first, since
// this loop neither reads nor maintains it.
func tickEveryCycle(c *Cluster) {
	c.ready, c.waiting = c.ready[:0], c.waiting[:0]
	for _, t := range c.tenants {
		switch {
		case t.hasPending:
			if c.issue(t, t.pending) {
				t.hasPending = false
			} else {
				t.stalls++
			}
		case c.now >= t.nextAt && t.outstanding < clusterMaxOutstanding:
			req := c.generate(t)
			t.nextAt = c.now + c.gap(t)
			if !c.issue(t, req) {
				t.pending, t.hasPending = req, true
				t.stalls++
			}
		}
	}
	for _, u := range c.chans {
		u.shaperWake = 0
		c.tickChannel(u)
	}
	c.now++
}

// TestClusterTenantWakeMatchesEveryCycle pins the tenant calendar and the
// shaper wakes against the loops they replace (tickEveryCycle). Under a
// fault campaign, the default shape mostly sleeps between requests,
// while a one-deep queue shared by 24 tenants keeps them stalled on full
// queues and shaper backpressure — the pending path, whose stall count
// advances every cycle. State bytes are compared every 1000 cycles.
func TestClusterTenantWakeMatchesEveryCycle(t *testing.T) {
	const total = 20000
	shapes := []struct {
		channels, domains, depth int
		stalls                   bool
	}{{2, 10, 0, false}, {1, 24, 1, true}}
	for _, scheme := range []config.Scheme{config.Insecure, config.DAGguise} {
		for _, sh := range shapes {
			cfg := clusterCfg(t, sh.channels, sh.domains, scheme)
			if sh.depth > 0 {
				cfg.QueueDepth = sh.depth
			}
			build := func() *Cluster {
				c, err := NewCluster(cfg, 0, sh.channels, 17, 11)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.AttachFaults(clusterFaultSched(total)); err != nil {
					t.Fatal(err)
				}
				return c
			}
			encode := func(c *Cluster) []byte {
				st, err := c.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			name := fmt.Sprintf("%s %dch/%dt", scheme, sh.channels, sh.domains)
			ref, got := build(), build()
			for got.Now() < total {
				tickEveryCycle(ref)
				got.Tick()
				if got.Now()%1000 == 0 && string(encode(got)) != string(encode(ref)) {
					t.Fatalf("%s: state at cycle %d differs from the every-cycle loop", name, got.Now())
				}
			}
			if a, b := got.AuditDigest(), ref.AuditDigest(); a != b {
				t.Fatalf("%s: digest %s, want %s", name, a, b)
			}
			if ct := got.Counters(); ct.Completed == 0 || (sh.stalls && ct.Stalls == 0) {
				t.Fatalf("%s: the run does not exercise the path it is meant to: %+v", name, ct)
			}
		}
	}
}
