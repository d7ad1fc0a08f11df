// Command bench is the repository's benchmark: it drives the serving stack at
// its public boundary — server.New(reg).Handler().ServeHTTP, in memory — over
// four workloads, checks every reply against the naive evaluator, and prints
// the metrics BENCHMARK.json names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "full" or "tiny"
	dataRoot string
	detail   bool
	// corrupt makes the oracle expect one wrong row, to show that it bites.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var aa string
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 16, "length of the measured part on the reference host; fixes the operation count")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics, 0 = timed run printing the end-to-end metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for a smoke run")
	fs.StringVar(&o.dataRoot, "data", filepath.Join(".bench_build", "data"), "directory for the namespaces' data directories")
	fs.BoolVar(&o.detail, "detail", false, "also print every candidate in-run statistic (used by -aa)")
	fs.StringVar(&aa, "aa", "", "A/A study: SETSxRUNS, e.g. 2x5; writes AA.md next to the sources")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if aa != "" {
		if err := runAA(aa, o, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	res, err := runOnce(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// config is the one server.Config shape all four workloads run under: live
// updates, durable storage with fsync before every acknowledgement, admission
// control wide enough never to shed two clients. Only the strategy differs.
func config(strategy, dataDir string) server.Config {
	return server.Config{
		Strategy:      strategy,
		LiveUpdates:   true,
		DataDir:       dataDir,
		MaxConcurrent: 4,
		MaxQueue:      64,
		// A checkpoint every 256 KiB of log keeps the WAL tail a recovery
		// replays to a few hundred batches and makes checkpoints part of
		// every churn round.
		SnapshotWALBytes: snapshotWALBytes,
	}
}

const snapshotWALBytes = 256 << 10

// sizes returns the data scale and the operation count of the whole run.
func sizes(o options) (dataScale, ops float64, err error) {
	dataScale = 1
	ops = opsPerSecond[o.workload] * o.seconds
	switch o.scale {
	case "full":
	case "tiny":
		dataScale = 0.02
		ops /= 50
	default:
		return 0, 0, fmt.Errorf("unknown scale %q", o.scale)
	}
	return dataScale, ops, nil
}

// bed is one served namespace with its handler and clients.
type bed struct {
	ns      *server.Namespace
	dir     string
	handler *server.Server
	clients []*client
}

func openBed(s *spec, base *storage.Database, dir string) (*bed, error) {
	ns, err := server.NewNamespace(server.DefaultNamespace, base, s.views, config(s.strategy, dir))
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if err := reg.Add(ns); err != nil {
		return nil, err
	}
	b := &bed{ns: ns, dir: dir, handler: server.New(reg)}
	for i := 0; i < s.clients; i++ {
		b.clients = append(b.clients, newClient(b.handler.Handler()))
	}
	return b, nil
}

func (b *bed) close() error {
	err := b.ns.Engine.Close()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// quiesce waits for the background checkpoint the last batch may have set
// off: it is over when it has truncated the log.
func (b *bed) quiesce() {
	for deadline := time.Now().Add(10 * time.Second); b.ns.Engine.Stats().Durable.WALBytes >= snapshotWALBytes && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// prepareAll prepares the workload's texts and returns their handles.
func (b *bed) prepareAll(s *spec) ([]string, error) {
	handles := make([]string, len(s.prepare))
	for i, text := range s.prepare {
		body, _ := json.Marshal(map[string]string{"query": text})
		c := b.clients[0]
		c.do("/v1/prepare", body)
		var reply struct {
			Handle string `json:"handle"`
		}
		if c.w.status != 200 || json.Unmarshal(c.w.buf.Bytes(), &reply) != nil || reply.Handle == "" {
			return nil, fmt.Errorf("prepare %q: status %d: %s", text, c.w.status, c.w.buf.Bytes())
		}
		handles[i] = reply.Handle
	}
	return handles, nil
}

// roundStats is what one measured round yields.
type roundStats struct {
	wall       time.Duration
	cpu        time.Duration
	ops        int
	allocBytes uint64
	mallocs    uint64
	attempted  int
	failed     int
	reads      int
	// Latency quantiles of the round, ms; the samples are not kept, so that
	// the benchmark's own arrays stay out of heap_live_mb.
	p50, readP50, p99 float64
	replyBytes        int64
	elapsed           []float64 // per actor, s
}

// runRound runs the actors to completion, all started together.
func runRound(actors []*actor) roundStats {
	var ms0, ms1 runtime.MemStats
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, a := range actors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a.run()
		}()
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	close(start)
	wg.Wait()
	rs := roundStats{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	rs.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rs.mallocs = ms1.Mallocs - ms0.Mallocs
	var opLat, readLat []int64
	for _, a := range actors {
		rs.elapsed = append(rs.elapsed, a.elapsed.Seconds())
		rs.attempted += len(a.reqs)
		rs.failed += a.failed
		rs.replyBytes += a.bytes
		if a.gate == nil { // a gated actor accompanies the operations, it is not one
			rs.ops += len(a.reqs)
			opLat = append(opLat, a.lat...)
		}
		if len(a.reqs) > 0 && a.reqs[0].read {
			readLat = append(readLat, a.lat...)
		}
	}
	rs.reads = len(readLat)
	rs.p50, rs.p99, rs.readP50 = quantileNs(opLat, 0.5), quantileNs(opLat, 0.99), quantileNs(readLat, 0.5)
	return rs
}

// cpuTime is the user plus system CPU time of the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run holds the state the timed and the traced protocol share.
type benchRun struct {
	o           options
	s           *spec
	out         io.Writer
	opsPerRound int
	root        string
	dirs        int
	reps        int

	attempted, failed int
}

func (r *benchRun) newDir() string {
	r.dirs++
	return filepath.Join(r.root, fmt.Sprintf("ns%d", r.dirs))
}

func (r *benchRun) check(c *client, req *request) {
	c.do(req.path, req.body)
	r.attempted++
	if !c.ok(req) {
		r.failed++
	}
}

func runOnce(o options, out io.Writer) (*result, error) {
	dataScale, ops, err := sizes(o)
	if err != nil {
		return nil, err
	}
	s, err := newSpec(o.workload, o.seed, dataScale)
	if err != nil {
		return nil, err
	}
	opsPerRound := int(ops) / s.rounds
	if opsPerRound < 8 {
		opsPerRound = 8
	}
	root, err := filepath.Abs(filepath.Join(o.dataRoot, fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	r := &benchRun{o: o, s: s, out: out, opsPerRound: opsPerRound, root: root, reps: s.reps}
	if o.scale == "tiny" {
		r.reps = 2 // a smoke run has no use for a steady median
	}
	printFingerprint(out, o, root, opsPerRound)
	if o.trace {
		return r.traced()
	}
	return r.timed()
}

// setup builds the namespace from the same base facts several times, each
// into an empty data directory, and keeps the last one. It returns the build
// times and the live heap just before the build that is kept, which
// heap_live_mb subtracts: the generated inputs are not the namespace's.
func (r *benchRun) setup(n int) (b *bed, times []float64, heapBefore uint64, err error) {
	for i := 0; i < n; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, 0, err
			}
			b = nil
		}
		heapBefore = heapAlloc()
		dir := r.newDir()
		base := r.s.base.Clone() // generating and copying the facts is not set-up
		t0 := time.Now()
		// The engine materialises views by scanning any base relation that
		// has no index, which is quadratic in the base; cmd/aqvd's loader
		// hands it such a base. The benchmark builds the indexes first and
		// counts them as set-up.
		base.BuildIndexes()
		if b, err = openBed(r.s, base, dir); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, times, heapBefore, nil
}

// warm prepares the handles, builds the request table and runs one unmeasured
// round, so plans are cached and lazy state (the maintainer's derivation
// counts, for one) is built before anything is timed. It returns the round.
func (r *benchRun) warm(b *bed) ([]*actor, error) {
	handles, err := b.prepareAll(r.s)
	if err != nil {
		return nil, err
	}
	if err := r.s.bind(handles); err != nil {
		return nil, err
	}
	if r.o.corrupt {
		p := r.s.probe()
		p.rows = append(p.rows, []string{"no", "such", "row"})
		p.want = encodeAnswers(p.rows)
	}
	actors := r.s.round(-1, r.opsPerRound, b.clients)
	rs := runRound(actors)
	r.attempted += rs.attempted
	r.failed += rs.failed
	return actors, nil
}

// recoverOnce copies the data directory as it stands — snapshot plus WAL
// tail, the image a crash would leave — reopens the copy and times the way to
// the first correct answer.
func (r *benchRun) recoverOnce(b *bed, last bool) (float64, engine.DurableStats, error) {
	b.quiesce() // the copy must not hold a half-written snapshot
	dir := r.newDir()
	if err := copyDir(b.dir, dir); err != nil {
		return 0, engine.DurableStats{}, err
	}
	t0 := time.Now()
	rb, err := openBed(r.s, storage.NewDatabase(), dir)
	if err != nil {
		return 0, engine.DurableStats{}, err
	}
	if _, err := rb.prepareAll(r.s); err != nil {
		return 0, engine.DurableStats{}, err
	}
	r.check(rb.clients[0], r.s.probe())
	d := time.Since(t0).Seconds()
	if last && r.s.final != nil {
		for _, req := range r.s.final() {
			r.check(rb.clients[0], req)
		}
	}
	st := rb.ns.Engine.Stats().Durable
	return d, st, rb.close()
}

func (r *benchRun) timed() (*result, error) {
	b, setupTimes, heapBefore, err := r.setup(r.reps)
	if err != nil {
		return nil, err
	}
	if _, err := r.warm(b); err != nil {
		return nil, err
	}
	runtime.GC()
	before := b.ns.Engine.Stats()
	var all []roundStats
	for i := 0; i < r.s.rounds; i++ {
		actors := r.s.round(i, r.opsPerRound, b.clients)
		all = append(all, runRound(actors))
	}
	after := b.ns.Engine.Stats()
	b.quiesce()
	heapLive := float64(heapAlloc()-heapBefore) / (1 << 20)
	if r.s.final != nil {
		for _, req := range r.s.final() {
			r.check(b.clients[0], req)
		}
	}
	var recoverTimes []float64
	for i := 0; i < r.reps; i++ {
		d, _, err := r.recoverOnce(b, i == r.reps-1)
		if err != nil {
			return nil, err
		}
		recoverTimes = append(recoverTimes, d)
	}
	if err := b.close(); err != nil {
		return nil, err
	}

	t := r.reduce(all)
	r.checkPlanHits(before, after)

	// The gated metrics are the ones this host can resolve (AA.md): counts
	// and live heap repeat to well under a percent, set-up is required by the
	// contract. Timings are printed here and reported, ungated, by the
	// traced run.
	m := map[string]metric{
		"alloc_kb_per_op": {t.allocKB, "KiB"},
		"mallocs_per_op":  {t.mallocs, "count"},
		"heap_live_mb":    {heapLive, "MiB"},
		"setup_s":         {median(setupTimes), "s"},
	}
	fmt.Fprintf(r.out, "rounds=%d ops_per_round=%d ops=%d latency_samples=%d read_latency_samples=%d statistic=%s\n",
		r.s.rounds, r.opsPerRound, t.ops, t.ops, t.reads, statistic)
	fmt.Fprintf(r.out, "round ops_s: %s\n", floats(t.perRound["ops_s"]))
	fmt.Fprintf(r.out, "round p50_ms: %s\n", floats(t.perRound["p50_ms"]))
	fmt.Fprintf(r.out, "last round, seconds per actor: %s\n", floats(all[len(all)-1].elapsed))
	fmt.Fprintf(r.out, "setup_s: %s\nrecover_s: %s\n", floats(setupTimes), floats(recoverTimes))
	t.perRound["recover_s"] = recoverTimes
	fmt.Fprintln(r.out, "not gated (the host does not resolve them; compare in pairs):")
	for _, name := range []string{"ops_s", "p50_ms", "read_p50_ms", "p99_ms", "cpu_ms_per_op", "recover_s"} {
		fmt.Fprintf(r.out, "  %-32s %14.6g\n", name, pick(t.perRound[name], name == "ops_s"))
	}
	fmt.Fprintf(r.out, "  %-32s %14.6g\n", "rss_peak_mb", peakRSSMB())
	fmt.Fprintln(r.out, "gated:")
	printMetrics(r.out, m)
	if r.o.detail {
		detail := map[string]float64{"rss_peak_mb": peakRSSMB()}
		for name, xs := range t.perRound {
			for c, q := range candidates {
				detail[name+"."+c] = good(xs, name == "ops_s", q)
			}
		}
		line, _ := json.Marshal(map[string]any{"detail": detail})
		fmt.Fprintln(r.out, string(line))
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// timings is what a series of rounds reduces to.
type timings struct {
	// perRound lists ops_s, p50_ms, read_p50_ms, p99_ms and cpu_ms_per_op by
	// round; pick turns a list into the run's value.
	perRound map[string][]float64
	// Counts are totals over all rounds, so that a checkpoint falling into
	// one round or the next changes nothing.
	allocKB, mallocs float64
	ops, reads       int
	requests         int
	replyBytes       int64
}

// reduce books the rounds' attempts and failures and sums them up.
func (r *benchRun) reduce(all []roundStats) timings {
	t := timings{perRound: make(map[string][]float64)}
	var allocBytes, mallocs uint64
	for _, rs := range all {
		r.attempted += rs.attempted
		r.failed += rs.failed
		t.requests += rs.attempted
		t.ops += rs.ops
		t.reads += rs.reads
		t.replyBytes += rs.replyBytes
		n := float64(rs.ops)
		t.perRound["ops_s"] = append(t.perRound["ops_s"], n/rs.wall.Seconds())
		t.perRound["p50_ms"] = append(t.perRound["p50_ms"], rs.p50)
		t.perRound["read_p50_ms"] = append(t.perRound["read_p50_ms"], rs.readP50)
		t.perRound["p99_ms"] = append(t.perRound["p99_ms"], rs.p99)
		t.perRound["cpu_ms_per_op"] = append(t.perRound["cpu_ms_per_op"], rs.cpu.Seconds()*1e3/n)
		allocBytes += rs.allocBytes
		mallocs += rs.mallocs
	}
	t.allocKB = float64(allocBytes) / 1024 / float64(t.ops)
	t.mallocs = float64(mallocs) / float64(t.ops)
	return t
}

// checkPlanHits counts a wrong plan-cache hit share as failed operations: on
// adhoc_plan the repeats must hit and the cold templates must miss.
func (r *benchRun) checkPlanHits(before, after engine.Stats) {
	if r.s.planHits < 0 {
		return
	}
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	want := uint64(r.s.planHits * float64(hits+misses))
	fmt.Fprintf(r.out, "plan cache: hits=%d misses=%d want_hits=%d\n", hits, misses, want)
	if hits != want {
		d := int(hits) - int(want)
		if d < 0 {
			d = -d
		}
		r.failed += d
	}
}

func printMetrics(out io.Writer, m map[string]metric) {
	for _, n := range sortedKeys(m) {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.5g", x)
	}
	return strings.Join(parts, " ")
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
