package ckpt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"dagguise/internal/config"
)

// pinCycles are the cycles at which TestCheckpointBytesPinned hashes the
// encoded state: early warm-up, an odd mid-run cycle, and the round-trip
// test's split point.
var pinCycles = []uint64{1_000, 37_123, 60_000}

// pinDigests runs buildSystem for every scheme and returns one
// "<scheme> <cycle> <sha256 of Encode(SaveState())>" line per pin cycle.
func pinDigests(t *testing.T) []string {
	t.Helper()
	schemes := []config.Scheme{
		config.Insecure,
		config.FixedService,
		config.FSBTA,
		config.TemporalPartitioning,
		config.Camouflage,
		config.DAGguise,
	}
	var lines []string
	for _, scheme := range schemes {
		sys := buildSystem(t, scheme)
		var at uint64
		for _, cyc := range pinCycles {
			sys.Run(cyc - at)
			at = cyc
			sum := sha256.Sum256(stateBytes(t, sys))
			lines = append(lines, fmt.Sprintf("%s %d %s", scheme, cyc, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

// TestCheckpointBytesPinned compares the encoded checkpoint bytes against
// digests committed in testdata/state_digests.txt. TestRoundTripGolden only
// compares the current code with itself; this test catches a change that
// moves simulated state or the wire format across versions.
func TestCheckpointBytesPinned(t *testing.T) {
	f, err := os.Open("testdata/state_digests.txt")
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
	got := pinDigests(t)
	if len(got) != len(want) {
		t.Fatalf("computed %d digests, testdata pins %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("checkpoint digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
