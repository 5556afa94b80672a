package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dagguise/internal/config"
)

// clusterPinCuts are the cycles at which TestClusterStateBytesPinned hashes
// the encoded state: the fleet's checkpoint boundaries, odd cycles, and
// 8_001 and 30_001, where every pinned run sits inside a skipped span.
var clusterPinCuts = []uint64{1_000, 5_000, 8_001, 12_345, 20_000, 25_000, 30_001, 37_123, 44_444, 50_000}

// TestClusterStateBytesPinned compares the encoded Cluster state against
// digests committed in testdata/cluster_state_digests.txt. The runs are
// 100-tenant, 1-of-4-channel slices, the shape of a fleet shard: insecure
// and DAGguise, plus a DAGguise slice under a fault campaign whose shaper
// backpressure keeps tenants stalled on pending requests. The other
// Cluster tests compare the current code with itself; this one catches a
// change that moves simulated state across versions.
// TestCheckpointBytesPinned does the same for sim.System.
func TestClusterStateBytesPinned(t *testing.T) {
	f, err := os.Open("testdata/cluster_state_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name   string
		scheme config.Scheme
		lo     int
		seed   int64
		secret int
		faults bool
	}{
		{"insecure", config.Insecure, 0, 1, 11, false},
		{"dagguise", config.DAGguise, 0, 1, 11, false},
		{"insecure", config.Insecure, 3, 2, 12, false},
		{"dagguise-faults", config.DAGguise, 1, 2, 12, true},
	}
	var got []string
	for _, r := range runs {
		// fleet.DefaultSweep's configuration, with the scheme swapped in.
		cfg := config.DefaultMultiChannel(4, 100, config.DAGguise)
		cfg.Scheme = r.scheme
		c, err := NewCluster(cfg, r.lo, r.lo+1, r.seed, r.secret)
		if err != nil {
			t.Fatal(err)
		}
		if r.faults {
			if err := c.AttachFaults(clusterFaultSched(50_000)); err != nil {
				t.Fatal(err)
			}
		}
		skipped := 0
		for _, cut := range clusterPinCuts {
			c.Run(cut - c.Now())
			if skipping(c) {
				skipped++
			}
			st, err := c.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got = append(got, fmt.Sprintf("%s ch%d seed%d secret%d %d %s", r.name, r.lo, r.seed, r.secret, cut, hex.EncodeToString(sum[:])))
		}
		if skipped == 0 {
			t.Errorf("%s ch%d: no cut lands inside a skipped span", r.name, r.lo)
		}
		if ct := c.Counters(); r.faults && ct.Stalls == 0 {
			t.Errorf("%s ch%d: the fault campaign stalled no tenant; the pending path did not run", r.name, r.lo)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("computed %d digests, testdata pins %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cluster state digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// skipping reports whether c is inside a span its event-driven paths jump
// over: no tenant can act this cycle, and some channel holds queued work
// its scheduler will not look at yet.
func skipping(c *Cluster) bool {
	if len(c.waiting) > 0 || (len(c.ready) > 0 && c.ready[0].at <= c.now) {
		return false
	}
	for _, u := range c.chans {
		if at, ok := u.ctrl.NextEvent(c.now); ok && u.ctrl.QueueLen() > 0 && at > c.now {
			return true
		}
	}
	return false
}
