package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"

	"dagguise/internal/eval"
	"dagguise/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite the goldens from the current program")

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 999)
	got, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if got != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989 (nearest rank 990)", got)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Fatalf("p50 of 20 samples: %v", err)
	}
}

func TestParseTopFoldsByLayer(t *testing.T) {
	text := `Showing nodes accounting for 2.40s, 100% of 2.40s total
      flat  flat%   sum%        cum   cum%
     0.16s  6.67%  6.67%      0.41s 17.08%  dagguise/internal/cpu.(*Core).issue
     0.14s  5.83% 12.50%      0.14s  5.83%  aeshashbody
     0.09s  3.75% 16.25%      0.09s  3.75%  dagguise/internal/rdag.(*PatternDriver).Poll
     0.07s  2.92% 19.17%      0.07s  2.92%  math/rand.(*rngSource).Uint64 (inline)
     0.05s  2.08% 21.25%      0.05s  2.08%  internal/runtime/maps.(*Map).getWithKey
     0.04s  1.67% 22.92%      0.04s  1.67%  runtime.memmove
`
	got, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu": 0.0667, "runtime": 0.0583 + 0.0208 + 0.0167, "shaper": 0.0375}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tables must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metric                `json:"end_to_end"`
	PerLayer  []metric                `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	same := func(what string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the tables %d", len(got), what, len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, table has %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, runners %s", got, want)
	}
}

// runResult runs the command and decodes its last output line.
func runResult(t *testing.T, goldens fstest.MapFS, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	fsys := fstest.MapFS{}
	for _, name := range []string{"fig9-2core.txt", "fleet-100t4c-seed1.json", "auditd-ingest-seed1.json"} {
		data, err := goldenFS.ReadFile("golden/" + name)
		if err != nil {
			t.Fatal(err)
		}
		fsys["golden/"+name] = &fstest.MapFile{Data: data}
	}
	for k, v := range goldens {
		fsys[k] = v
	}
	code := run(append(args, "--workdir", t.TempDir()), fsys, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v\nstderr:\n%s", lines[len(lines)-1], err, stderr.String())
	}
	return code, r, stderr.String()
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricPrinted runs every workload briefly, untraced and traced,
// and checks the result line carries exactly the metrics of BENCHMARK.json.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				code, r, stderr := runResult(t, nil, "--workload", w.Name, "--seconds", "1", "--trace", trace)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, r, stderr)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !metricName.MatchString(m.Name):
						t.Errorf("metric name %q", m.Name)
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
				if trace == "1" && strings.HasPrefix(w.Name, "fig9") {
					if c := r.Metrics["fig9-2core.profile.coverage"].Value; c < 0.95 {
						t.Errorf("cycle profile coverage %.3f < 0.95", c)
					}
				}
			})
		}
	}
}

func TestCorruptGoldenFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	corrupt := fstest.MapFS{"golden/auditd-ingest-seed1.json": &fstest.MapFile{Data: []byte(`{"tenants":[]}`)}}
	code, r, _ := runResult(t, corrupt, "--workload", "auditd-ingest", "--seconds", "1", "--trace", "0")
	if code == 0 {
		t.Fatal("a corrupt golden must make the command exit non-zero")
	}
	if r.Correct || r.Failed != r.Attempted || r.Attempted < 1 {
		t.Fatalf("a corrupt golden must fail every operation, got %+v", r)
	}
}

// TestGoldens regenerates each workload's output at the default seed and
// compares it with the committed golden; -update rewrites the goldens.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	outputs := map[string]func() ([]byte, error){
		"fig9-2core.txt": func() ([]byte, error) {
			res, err := eval.Figure9(fig9Options())
			if err != nil {
				return nil, err
			}
			return []byte(eval.FormatFigure9(res)), nil
		},
		"fleet-100t4c-seed1.json": func() ([]byte, error) {
			rep, err := fleet.Run(context.Background(), fleetSweep(defaultSeed), fleet.Options{
				Workers: fleetWorkers, Dir: t.TempDir(), CheckpointEvery: fleetCycles / 10})
			if err != nil {
				return nil, err
			}
			return rep.Encode()
		},
		"auditd-ingest-seed1.json": func() ([]byte, error) {
			p, err := runPass(defaultSeed, false, nil)
			if err != nil {
				return nil, err
			}
			return p.verdicts, nil
		},
	}
	for name, out := range outputs {
		got, err := out()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("golden", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden:\n%s", name, got)
		}
	}
}
