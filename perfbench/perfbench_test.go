package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// reprodBin is the daemon binary the daemon-loop self-test drives, built
// once from the checkout by TestMain.
var reprodBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	reprodBin = filepath.Join(dir, "reprod")
	build := exec.Command("go", "build", "-o", reprodBin, "./cmd/reprod")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building reprod: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is the part of ../BENCHMARK.json the harness must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkFile: the harness reports exactly the
// workloads and metrics BENCHMARK.json declares, with the same units.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, declared []metricDef, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(file) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(declared), len(file))
		}
		units := map[string]string{}
		for _, d := range declared {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json metric %q is not reported", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", kind, m.Name, u, m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// TestTinyRuns runs every workload at self-test size, untraced and traced,
// and checks that each emits every metric BENCHMARK.json names, with its
// unit, and passes its correctness gates.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "3", "-seconds", "2", "-trace", trace,
					"-tiny", "-root", "..", "-reprod", reprodBin, "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestGateRejectsOneByte: the correctness gate fails a report that differs
// from the golden bytes in a single byte, in either export.
func TestGateRejectsOneByte(t *testing.T) {
	want, err := readGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameExport("golden", want, want); err != nil {
		t.Fatalf("identical exports rejected: %v", err)
	}
	for _, field := range []string{"json", "csv"} {
		got := export{bytes.Clone(want.json), bytes.Clone(want.csv)}
		b := got.json
		if field == "csv" {
			b = got.csv
		}
		b[len(b)/2] ^= 1
		if err := sameExport("golden", got, want); !errors.Is(err, errIncorrect) {
			t.Errorf("one byte changed in the %s export: got %v, want errIncorrect", field, err)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/thermal.(*BatchSim).Step":      "thermal",
		"repro/internal/sim.(*Runner).RunBatch":        "sim",
		"repro/internal/platform.ByName":               "other",
		"math/rand.(*rngSource).Seed":                  "math_rand",
		"math.Exp":                                     "math",
		"crypto/internal/fips140/sha256.blockSHANI":    "crypto_sha256",
		"encoding/json.(*decodeState).object":          "encoding_json",
		"runtime.scanobject":                           "gc",
		"runtime.gcDrain":                              "gc",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/syscall.Syscall6":            "syscall",
		"net/http.(*conn).serve":                       "net",
		"repro/internal/store.(*Store).Get":            "store",
		"repro/internal/client.(*Client).Follow.func1": "client",
		"sort.Slice":                                   "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
