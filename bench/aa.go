package main

// A/A study (-aa SETSxRUNS): interleaved sets of full runs of the same build,
// one process per run. For every workload and end-to-end metric it reports
// each set's median, the difference between the set medians, and each set's
// interquartile spread, both as shares of the first set's median — the two
// quantities the bounds in BENCHMARK.json have to cover. The timings that
// are not gated, under each candidate in-run statistic, are compared the same
// way: that comparison is why they are not gated.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the default, exclusive, method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func mustAbs(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return path
	}
	return abs
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runChild runs one benchmark process and returns its result and the detail
// line.
func runChild(o options, workload string, seed int64) (*result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-scale", o.scale, "-data", o.dataRoot, "-detail")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out.String())
	}
	var res result
	var detail struct {
		Detail map[string]float64 `json:"detail"`
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"detail"`)) {
			if err := json.Unmarshal(line, &detail); err != nil {
				return nil, nil, err
			}
		} else if bytes.HasPrefix(line, []byte(`{"correct"`)) {
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, nil, err
			}
		}
	}
	if res.Metrics == nil {
		return nil, nil, fmt.Errorf("%s seed %d: no result line", workload, seed)
	}
	return &res, detail.Detail, nil
}

func runAA(shape string, o options, out io.Writer) error {
	var sets, runs int
	if _, err := fmt.Sscanf(shape, "%dx%d", &sets, &runs); err != nil || sets < 2 || runs < 2 {
		return fmt.Errorf("-aa wants SETSxRUNS with at least 2x2, got %q", shape)
	}
	var bf benchmarkFile
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}
	workloads := workloadNames
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	// values[workload][metric][set] lists one value per run.
	values := map[string]map[string][][]float64{}
	started := time.Now()
	for _, w := range workloads {
		values[w] = map[string][][]float64{}
		for j := 0; j < runs; j++ {
			for i := 0; i < sets; i++ { // interleaved: A B A B ...
				seed := o.seed + int64(j)
				res, detail, err := runChild(o, w, seed)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w, seed, res.Failed, res.Attempted)
				}
				add := func(name string, v float64) {
					if values[w][name] == nil {
						values[w][name] = make([][]float64, sets)
					}
					values[w][name][i] = append(values[w][name][i], v)
				}
				for name, m := range res.Metrics {
					add(name, m.Value)
				}
				for name, v := range detail {
					add(name, v)
				}
				fmt.Fprintf(out, "%s set %d run %d (seed %d) done, %.0f s elapsed\n", w, i+1, j+1, seed, time.Since(started).Seconds())
			}
		}
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# A/A study: %d interleaved sets of %d runs of the same build\n\n", sets, runs)
	fmt.Fprintf(&md, "Command: `bash bench/run.sh -aa %s -seconds %g` (seeds %d..%d, the same in every set; one process per run).\n",
		shape, o.seconds, o.seed, o.seed+int64(runs)-1)
	fmt.Fprintf(&md, "Host: nproc=%d GOMAXPROCS=%d %s, data directory on %s. Reported in-run statistic: %s.\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(mustAbs(o.dataRoot)), statistic)
	md.WriteString("`diff` is the distance between the medians of set 1 and set 2, `spread` the distance between a set's\n" +
		"first and third quartile (Python's `statistics.quantiles(values, n=4)`), both as a share of set 1's median.\n" +
		"A bound has to be at least twice the diff and three times the larger spread. Rows without a bound are the\n" +
		"timings the benchmark prints but does not gate, as `metric.statistic` for each candidate in-run statistic.\n\n")
	for _, w := range workloads {
		fmt.Fprintf(&md, "## %s\n\n", w)
		md.WriteString("| metric | median set 1 | median set 2 | diff | spread set 1 | spread set 2 | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
		names := sortedKeys(values[w])
		sort.SliceStable(names, func(i, j int) bool { // gated metrics first
			_, gi := bound[names[i]]
			_, gj := bound[names[j]]
			return gi && !gj
		})
		for _, name := range names {
			v := values[w][name]
			m1, m2 := median(v[0]), median(v[1])
			diff := (m2 - m1) / m1
			if diff < 0 {
				diff = -diff
			}
			s1, s2 := spread(v[0]), spread(v[1])
			worst := s1
			if s2 > worst {
				worst = s2
			}
			b, gated := bound[name]
			verdict, boundText := "not gated", "—"
			if gated {
				boundText = fmt.Sprintf("%.1f%%", b*100)
				if name == "setup_s" {
					worst = 0 // the driver does not hold set-up time's spread against its bound
				}
				switch {
				case 2*diff > b || worst > b:
					verdict = "TOO NOISY"
				case 3*worst > b:
					verdict = "spread above a third of the bound"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(&md, "| `%s` | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
				name, m1, m2, diff*100, s1*100, s2*100, boundText, verdict)
		}
		md.WriteString("\n")
	}
	path := "bench/AA.md"
	if _, err := os.Stat("bench"); err != nil {
		path = "AA.md"
	}
	if err := os.WriteFile(path, []byte(md.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
