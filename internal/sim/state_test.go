package sim

import (
	"strings"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/mem"
)

// TestRestoreRejectsUnknownDomains feeds checkpoints whose per-domain
// entries name a domain outside 1..cores, or one without the shaper the
// entry needs. The lanes are dense slices indexed by domain, so each must
// be refused with an error, never a panic or a silent extra entry.
func TestRestoreRejectsUnknownDomains(t *testing.T) {
	build := func(t *testing.T, scheme config.Scheme) *System {
		t.Helper()
		sys, err := New(config.Default(2, scheme), []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cases := []struct {
		name   string
		scheme config.Scheme
		mut    func(st *SystemState)
		want   string
	}{
		{"shaper domain 0", config.DAGguise, func(st *SystemState) { st.Shapers[0].Domain = 0 }, "shaper state"},
		{"shaper domain past cores", config.DAGguise, func(st *SystemState) { st.Shapers[0].Domain = 3 }, "shaper state"},
		{"shaper on unshaped domain", config.DAGguise, func(st *SystemState) { st.Shapers[0].Domain = 2 }, "shaper state"},
		{"extra shaper", config.DAGguise, func(st *SystemState) { st.Shapers = append(st.Shapers, st.Shapers[0]) }, "shapers"},
		{"camouflage domain past cores", config.Camouflage, func(st *SystemState) { st.Camos[0].Domain = 40 }, "camouflage state"},
		{"camouflage on unshaped domain", config.Camouflage, func(st *SystemState) { st.Camos[0].Domain = 2 }, "camouflage state"},
		{"egress domain 0", config.DAGguise, func(st *SystemState) {
			st.Egress = append(st.Egress, DomainRequests{Domain: 0, Reqs: []mem.Request{{ID: 1}}})
		}, "not a shaped domain"},
		{"egress domain past cores", config.DAGguise, func(st *SystemState) {
			st.Egress = append(st.Egress, DomainRequests{Domain: 9, Reqs: []mem.Request{{ID: 1}}})
		}, "not a shaped domain"},
		{"egress on unshaped domain", config.DAGguise, func(st *SystemState) {
			st.Egress = append(st.Egress, DomainRequests{Domain: 2, Reqs: []mem.Request{{ID: 1}}})
		}, "not a shaped domain"},
		{"egress under an unshaped scheme", config.FSBTA, func(st *SystemState) {
			st.Egress = append(st.Egress, DomainRequests{Domain: 1, Reqs: []mem.Request{{ID: 1}}})
		}, "not a shaped domain"},
		{"high-water mark past cores", config.DAGguise, func(st *SystemState) {
			st.EgressHW = append(st.EgressHW, DomainInt{Domain: 65535, V: 3})
		}, "not a shaped domain"},
		{"high-water mark on unshaped domain", config.Camouflage, func(st *SystemState) {
			st.EgressHW = append(st.EgressHW, DomainInt{Domain: 2, V: 3})
		}, "not a shaped domain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := build(t, tc.scheme)
			sys.Run(5_000)
			st, err := sys.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if err := build(t, tc.scheme).RestoreState(st); err != nil {
				t.Fatalf("unmodified state rejected: %v", err)
			}
			tc.mut(st)
			err = build(t, tc.scheme).RestoreState(st)
			if err == nil {
				t.Fatal("corrupt state restored without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
