package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// lastLine runs the benchmark in process and decodes the result line.
func lastLine(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-scale", "tiny", "-data", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return res, code
}

// TestSmoke runs every workload timed and traced at tiny scale and checks
// that the names emitted are exactly the names BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed []string
	for _, w := range c.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, " "), strings.Join(workloadNames, " "); got != want {
		t.Fatalf("BENCHMARK.json lists workloads %q, the benchmark has %q", got, want)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloadNames {
		if !valid.MatchString(w) {
			t.Errorf("workload name %q is outside the contract's alphabet", w)
		}
		for trace, want := range map[string]map[string]string{"0": units(c.EndToEnd), "1": units(c.PerLayer)} {
			res, code := lastLine(t, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct=%v, failed %d of %d", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			var got, missing []string
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					got = append(got, name+" ["+m.Unit+"]")
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					missing = append(missing, name)
				}
			}
			sort.Strings(got)
			sort.Strings(missing)
			if len(got)+len(missing) > 0 {
				t.Errorf("%s trace=%s: not in BENCHMARK.json (or other unit): %v; listed but not emitted: %v", w, trace, got, missing)
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestOracleBites plants one wrong expected row and wants it reported as
// failed operations and a non-zero exit.
func TestOracleBites(t *testing.T) {
	for _, w := range workloadNames {
		res, err := runOnce(options{workload: w, seed: 7, seconds: 1, scale: "tiny", dataRoot: t.TempDir(), corrupt: true}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected row went unnoticed (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; Python gives 3.5, 31.0", q1, q3)
	}
}
