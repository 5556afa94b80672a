package cpu

import (
	"reflect"
	"strings"
	"testing"

	"dagguise/internal/mem"
	"dagguise/internal/trace"
)

// streamCore builds a prefetching core over a sequential load stream and
// runs it until prefetches are in flight behind a slow port.
func streamCore(t *testing.T) (*Core, CoreState) {
	t.Helper()
	ops := make([]trace.Op, 400)
	for i := range ops {
		ops[i] = trace.Op{Addr: uint64(i) * 64, Kind: mem.Read, Gap: 2}
	}
	cfg := coreCfg()
	cfg.PrefetchDepth = 4
	p := &fixedLatencyPort{latency: 300}
	c := New(1, &trace.Slice{Ops: ops}, tinyCaches(t), cfg, p, idAlloc())
	run(c, p, 120)
	st, err := c.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Window) == 0 || len(st.PfInMem) == 0 {
		t.Fatalf("fixture has %d window ops and %d in-flight prefetches, want both non-zero", len(st.Window), len(st.PfInMem))
	}
	return c, st
}

func freshCore(t *testing.T) *Core {
	t.Helper()
	cfg := coreCfg()
	cfg.PrefetchDepth = 4
	return New(1, &trace.Slice{Ops: make([]trace.Op, 400)}, tinyCaches(t), cfg, &fixedLatencyPort{latency: 300}, idAlloc())
}

func TestCoreStateRoundTrip(t *testing.T) {
	_, st := streamCore(t)
	c := freshCore(t)
	if err := c.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	got, err := c.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("restored core saves a different state")
	}
}

// TestCoreRestoreRejectsCorruptState feeds checkpoints that do not fit the
// ring-buffer window or the in-flight prefetch list; each must be refused
// with an error before any state is touched, never a panic.
func TestCoreRestoreRejectsCorruptState(t *testing.T) {
	cases := []struct {
		name string
		mut  func(st *CoreState)
		want string
	}{
		{"window longer than ring", func(st *CoreState) {
			for len(st.Window) <= 256 {
				st.Window = append(st.Window, SlotState{Seq: st.NextSeq})
				st.NextSeq++
				st.InstCount++
			}
		}, "ring"},
		{"seq gap", func(st *CoreState) { st.Window[1].Seq += 5 }, "seq"},
		{"window not at base", func(st *CoreState) { st.BaseSeq++; st.NextSeq++ }, "seq"},
		{"next seq short", func(st *CoreState) { st.NextSeq-- }, "seqs"},
		{"unknown status", func(st *CoreState) { st.Window[0].Status = 7 }, "status"},
		{"instruction count off", func(st *CoreState) { st.InstCount = 0 }, "instructions"},
		{"negative gap", func(st *CoreState) { st.Window[0].Op.Gap = -1 }, "gap"},
		{"read beyond window", func(st *CoreState) {
			st.Reads = append(st.Reads, PairU64{K: 1 << 40, V: st.NextSeq + 3})
		}, "read"},
		{"issued line without request", func(st *CoreState) {
			st.PfIssued = append(st.PfIssued, 1<<30)
		}, "prefetch"},
		{"request without issued line", func(st *CoreState) { st.PfIssued = st.PfIssued[1:] }, "prefetch"},
		{"issued line differs", func(st *CoreState) { st.PfIssued[0] += 1 << 30 }, "prefetch"},
		{"unaligned prefetch address", func(st *CoreState) { st.PfInMem[0].V++ }, "line-aligned"},
		{"duplicate prefetch line", func(st *CoreState) {
			st.PfInMem = append(st.PfInMem, PairU64{K: 1 << 40, V: st.PfInMem[0].V})
			st.PfIssued = append(st.PfIssued, st.PfIssued[0])
		}, "prefetch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, st := streamCore(t)
			tc.mut(&st)
			err := freshCore(t).RestoreState(st)
			if err == nil {
				t.Fatal("corrupt state restored without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
