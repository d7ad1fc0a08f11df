package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// statistic is the in-run statistic that turns per-round values (ops_s,
// p50_ms, read_p50_ms, cpu_ms_per_op) and the repeated recoveries into the
// number a run reports. It was chosen once for all workloads by the A/A study
// (AA.md) among the candidates below. Each is a quantile on the good side:
// towards the highest rounds for a rate, towards the lowest for a time.
const statistic = "median"

var candidates = map[string]float64{"median": 0.5, "quartile": 0.75, "decile": 0.9, "best": 1}

// pick reduces per-round values to the run's value.
func pick(xs []float64, higherIsBetter bool) float64 {
	return good(xs, higherIsBetter, candidates[statistic])
}

// good is the q-quantile counted from the bad side: q = 0.75 is the third
// quartile of a rate and the first quartile of a time.
func good(xs []float64, higherIsBetter bool, q float64) float64 {
	if higherIsBetter {
		return quantile(xs, q)
	}
	return quantile(xs, 1-q)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileNs is the q-quantile of nanosecond samples, in milliseconds.
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return float64(s[i]) / 1e6
}

// printFingerprint prints the host fields every run records.
func printFingerprint(out io.Writer, o options, dataDir string, opsPerRound int) {
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		kernel = cstr(u.Sysname[:]) + " " + cstr(u.Release[:])
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g scale=%s trace=%v ops_per_round=%d\n",
		o.workload, o.seed, o.seconds, o.scale, o.trace, opsPerRound)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s kernel=%q data_dir_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, fsType(dataDir))
}

func cstr(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// fsType names the filesystem holding dir, from /proc/mounts (longest mount
// point that is a prefix of dir).
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	bestLen, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			bestLen, fs = len(mp), f[2]
		}
	}
	return fs
}
