// Command perfbench is the repository's benchmark. It starts the real topkd
// daemon (default flags plus a fresh -data-dir), drives one seeded workload
// over loopback HTTP for a timed window, checks the daemon's answers and
// its durability, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer metrics,
// which come from /debug/stats deltas and from an in-process replay of the
// window with a span around every layer call. Build and run it through
// run.sh from the root of the checkout:
//
//	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
//
// NOTES.md gives the workloads, the metrics and what is left out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"probtopk/internal/server"
)

// How many times one run repeats the short phases it reports medians of.
// Set-up repeats at least minSetupRounds times and until setupBudget of
// set-up has been measured, at most maxSetupRounds times, so that a short
// set-up is the median of many rounds and a long one does not stretch the
// run.
const (
	minSetupRounds = 3
	maxSetupRounds = 31
	setupBudget    = 5 * time.Second
	recoveryRounds = 7
	verifyPerKind  = 6
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	topkd    string
	work     string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "cold-mix or hot-hits")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: tables and request streams derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1: also replay the window in-process with spans and report the per-layer metrics")
	flag.StringVar(&cfg.topkd, "topkd", ".bench_build/topkd", "topkd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for data dirs and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-mix|hot-hits --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(cfg.trace)
	if !rep.correct {
		os.Exit(1)
	}
}

// report collects what a run prints.
type report struct {
	correct           bool
	attempted, failed int
	info              []string
	// e2e are the end-to-end metrics BENCHMARK.json lists; shown are the
	// others, printed with them but too noisy on a shared host to gate.
	e2e, shown, layer []metric
}

type metric struct {
	name, unit string
	value      float64
	note       string
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) print(trace bool) {
	for _, line := range r.info {
		fmt.Println("# " + line)
	}
	show := func(title string, ms []metric) {
		fmt.Println("# " + title)
		for _, m := range ms {
			fmt.Printf("%-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	show("end-to-end (untraced window)", r.e2e)
	show("end-to-end, printed only", r.shown)
	out := r.e2e
	if trace {
		show("per layer", r.layer)
		out = r.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range out {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	fmt.Println(string(line))
}

func run(cfg config) (*report, error) {
	w := workloads[cfg.workload]
	tables, ingest, err := makeTables()
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		w.gen.tables = append(w.gen.tables, t.name)
	}
	all := append(tables, ingest)
	var hot []*request
	if w.hotSet > 0 {
		hot = hotQueries(&w.gen, cfg.seed, w.hotSet)
	}
	warm := append(warmQueries(w.gen.tables, w.gen.ks), hot...)

	runDir, err := filepath.Abs(filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Every daemon this run starts is killed on the way out, whatever
	// happened; kill waits for the process to end.
	var started []*daemon
	defer func() {
		for _, d := range started {
			d.kill()
		}
	}()
	start := func(dir string) (*daemon, error) {
		d, err := startDaemon(cfg.topkd, dir)
		if d != nil {
			started = append(started, d)
		}
		if err != nil {
			return nil, err
		}
		return d, d.waitHealthy()
	}

	rep := &report{correct: true}
	rep.infof("workload %s, seed %d, window %ds, trace %v", w.name, cfg.seed, cfg.seconds, cfg.trace)
	rep.infof("topkd defaults: -fsync=always -checkpoint-every 256 -fairness -shards %d (GOMAXPROCS), nproc %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep.infof("data-dir filesystem %s", fsType(runDir))

	// Set-up: exec → tables uploaded → warm-up done, on a fresh data dir each
	// time; the last daemon serves the window.
	var d *daemon
	var setupSecs []float64
	for i, spent := 0, 0.0; i < maxSetupRounds && (i < minSetupRounds || spent < setupBudget.Seconds()); i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = start(filepath.Join(runDir, fmt.Sprintf("data%d", i))); err != nil {
			return nil, err
		}
		if err := setUp(d, all, warm); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		spent += setupSecs[i]
	}

	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	next := make([]func() *request, w.clients)
	for i := range next {
		r := newRand(cfg.seed, uint64(i+1))
		if hot != nil {
			next[i] = func() *request { return hot[r.IntN(len(hot))] }
		} else {
			next[i] = w.gen.stream(r).next
		}
	}
	ag := &appendGen{tables: []table{ingest}}
	ar := newRand(cfg.seed, streamAppends)
	win := runWindow(d.base, next, func() *request { return ag.next(ar) }, time.Duration(cfg.seconds)*time.Second)
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Output check: a seeded sample of each kind against an in-process
	// engine on the contents the daemon serves.
	answers, err := fetchAnswers(d, verifySample(w, cfg.seed, hot, verifyPerKind))
	if err != nil {
		return nil, err
	}
	if err := checkAgainstEngine(d, answers); err != nil {
		rep.correct = false
		rep.infof("OUTPUT CHECK FAILED: %v", err)
	}

	// Storage: data-dir bytes over the live tuples as the daemon serves them.
	live := map[string][]byte{}
	liveBytes := 0
	for _, t := range all {
		data, err := d.tableCSV(t.name)
		if err != nil {
			return nil, err
		}
		live[t.name] = data
		liveBytes += len(data)
	}
	stored, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}

	// Recovery: SIGKILL, restart on the same dir until /healthz answers;
	// every acknowledged append must survive.
	dataDir := d.dir
	var recoverySecs []float64
	for i := 0; i < recoveryRounds; i++ {
		d.kill()
		t0 := time.Now()
		if d, err = start(dataDir); err != nil {
			return nil, err
		}
		recoverySecs = append(recoverySecs, time.Since(t0).Seconds())
		if i == 0 {
			if err := checkRecovered(d, win.appends.acked, live); err != nil {
				rep.correct = false
				rep.infof("DURABILITY CHECK FAILED: %v", err)
			}
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// End-to-end metrics, all from the untraced window.
	var queries []time.Duration
	okQueries := 0
	byKind := map[string][]time.Duration{}
	for _, s := range win.all() {
		rep.attempted++
		if !s.ok {
			rep.failed++
		}
		byKind[s.kind] = append(byKind[s.kind], s.lat)
		if s.kind != kindAppend {
			queries = append(queries, s.lat)
			if s.ok {
				okQueries++
			}
		}
	}
	appends := byKind[kindAppend]
	rep.infof("fsync policy always; fail_ratio %.4f (%d/%d, non-2xx + transport errors + timeouts)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	rep.e2e = []metric{
		{"query_gmean_ms", "ms", gmeanMS(queries), nOf(queries)},
		{"topk_gmean_ms", "ms", gmeanMS(byKind[kindTopK]), nOf(byKind[kindTopK])},
		{"typical_gmean_ms", "ms", gmeanMS(byKind[kindTypical]), nOf(byKind[kindTypical])},
		{"setup_s", "s", median(setupSecs), fmt.Sprintf("(median of %d: %s)", len(setupSecs), joinF(setupSecs))},
		{"server_peak_rss_mb", "MB", rss, "(VmHWM after the window)"},
		{"stored_bytes_per_user_byte", "ratio", ratio(float64(stored), float64(liveBytes)), fmt.Sprintf("(%d/%d)", stored, liveBytes)},
	}
	rep.shown = []metric{
		{"batch_gmean_ms", "ms", gmeanMS(byKind[kindBatch]), nOf(byKind[kindBatch])},
		{"baseline_gmean_ms", "ms", gmeanMS(byKind[kindBaseline]), nOf(byKind[kindBaseline])},
		{"query_p50_ms", "ms", ms(pct(queries, 0.50)), nOf(queries)},
		{"query_p99_ms", "ms", ms(pct(queries, 0.99)), nOf(queries)},
	}
	for _, k := range queryKinds {
		rep.shown = append(rep.shown, metric{k + "_p50_ms", "ms", ms(pct(byKind[k], 0.50)), nOf(byKind[k])})
	}
	rep.shown = append(rep.shown,
		metric{"query_throughput_qps", "1/s", float64(okQueries) / win.elapsed.Seconds(), fmt.Sprintf("(%d ok in %.2fs)", okQueries, win.elapsed.Seconds())},
		metric{"append_p50_ms", "ms", ms(pct(appends, 0.50)), nOf(appends) + " open loop"},
		metric{"append_p99_ms", "ms", ms(pct(appends, 0.99)), nOf(appends) + " open loop"},
		metric{"recovery_s", "s", median(recoverySecs), fmt.Sprintf("(median of %d: %s)", len(recoverySecs), joinF(recoverySecs))},
	)

	rep.layer = statsMetrics(before, after, appendUserBytesIn(win))
	var lag []time.Duration
	for _, s := range win.appends.samples {
		lag = append(lag, s.lag)
	}
	rep.layer = append(rep.layer, metric{"loadgen.lag_p99_ms", "ms", ms(pct(lag, 0.99)), nOf(lag)})
	if cfg.trace {
		layer, err := traceMetrics(cfg, w, all, warm, win, byKind, answers, runDir)
		if err != nil {
			return nil, err
		}
		if layer == nil {
			rep.correct = false
		}
		rep.layer = append(rep.layer, layer...)
	}
	return rep, nil
}

// setUp uploads the tables and sends the warm-up queries on two
// connections.
func setUp(d *daemon, tables []table, warm []*request) error {
	for _, t := range tables {
		if _, err := d.call("PUT", "/tables/"+t.name, "text/csv", t.csv, http.StatusCreated); err != nil {
			return err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for j := i; j < len(warm); j += len(errs) {
				status, body, err := send(c, d.base, "perfbench-warm", warm[j])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up %s %s: %w", warm[j].path, warm[j].body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRecovered requires every acknowledged append's ids after the restart
// and, since nothing was in flight at the SIGKILL, the exact pre-kill
// contents of every table.
func checkRecovered(d *daemon, acked []*request, live map[string][]byte) error {
	if err := checkAcked(d, acked); err != nil {
		return err
	}
	for name, want := range live {
		got, err := d.tableCSV(name)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("table %s differs after SIGKILL + restart", name)
		}
	}
	return nil
}

// csvBytes is the size of an append's tuples in the CSV form the daemon
// serves them in, the unit of stored_bytes_per_user_byte.
func csvBytes(r *request) int {
	n := 0
	for _, tp := range r.tuples {
		n += len(fmt.Sprintf("%s,%s,%s,%s\n", tp.ID, strconv.FormatFloat(tp.Score, 'g', -1, 64), strconv.FormatFloat(tp.Prob, 'g', -1, 64), tp.Group))
	}
	return n
}

func appendUserBytesIn(win *window) int {
	n := 0
	for _, r := range win.appends.acked {
		n += csvBytes(r)
	}
	return n
}

// statsMetrics turns the /debug/stats delta over the window into the
// counter-based per-layer metrics, each ratio printed with its base.
func statsMetrics(b, a *server.StatsResponse, userBytes int) []metric {
	d := func(x, y uint64) float64 { return float64(y - x) }
	hits, misses := d(b.AnswerCache.Hits, a.AnswerCache.Hits), d(b.AnswerCache.Misses, a.AnswerCache.Misses)
	phits, pmisses := d(b.PreparedCache.Hits, a.PreparedCache.Hits), d(b.PreparedCache.Misses, a.PreparedCache.Misses)
	meanMS := func(x, y server.LatencyJSON) (float64, string) {
		n := d(x.Count, y.Count)
		return ratio(d(x.TotalNs, y.TotalNs), n) / 1e6, fmt.Sprintf("(%.0f queries)", n)
	}
	cached, cachedN := meanMS(b.CachedQueries, a.CachedQueries)
	computed, computedN := meanMS(b.ComputedQueries, a.ComputedQueries)
	count := func(name string, v float64) metric { return metric{name, "count", v, ""} }
	out := []metric{
		{"server.cached_ms_mean", "ms", cached, cachedN},
		{"server.computed_ms_mean", "ms", computed, computedN},
		{"anscache.hit_ratio", "ratio", ratio(hits, hits+misses), fmt.Sprintf("(%.0f/%.0f)", hits, hits+misses)},
		count("anscache.lookups", hits+misses),
		count("anscache.evictions", d(b.AnswerCache.Evictions, a.AnswerCache.Evictions)),
		count("anscache.invalidations", d(b.AnswerCache.Invalidations, a.AnswerCache.Invalidations)),
		count("flight.coalesced", d(b.CoalescedQueries.Count, a.CoalescedQueries.Count)),
		{"engine.prepared_hit_ratio", "ratio", ratio(phits, phits+pmisses), fmt.Sprintf("(%.0f/%.0f)", phits, phits+pmisses)},
		count("uncertain.view_rebuilds", d(b.DynamicIndex.ViewRebuilds, a.DynamicIndex.ViewRebuilds)),
		count("uncertain.memo_hits", d(b.DynamicIndex.MemoHits, a.DynamicIndex.MemoHits)),
		count("uncertain.suffix_rebuilds", d(b.DynamicIndex.SuffixRebuilds, a.DynamicIndex.SuffixRebuilds)),
		count("uncertain.full_rebuilds", d(b.DynamicIndex.FullRebuilds, a.DynamicIndex.FullRebuilds)),
		count("core.dp_calls", d(b.EngineQueries.Count, a.EngineQueries.Count)),
	}
	var sheds float64
	if b.Fairness != nil && a.Fairness != nil {
		sheds = d(b.Fairness.Sheds, a.Fairness.Sheds)
	}
	out = append(out, count("fairness.sheds", sheds))
	if b.Durability != nil && a.Durability != nil {
		recs := d(b.Durability.WALRecords, a.Durability.WALRecords)
		syncs := d(b.Durability.WALSyncs, a.Durability.WALSyncs)
		walBytes := d(b.Durability.WALBytes, a.Durability.WALBytes)
		out = append(out,
			count("wal.records", recs),
			metric{"wal.syncs_per_record", "ratio", ratio(syncs, recs), fmt.Sprintf("(%.0f/%.0f)", syncs, recs)},
			metric{"wal.bytes_per_user_byte", "ratio", ratio(walBytes, float64(userBytes)), fmt.Sprintf("(%.0f/%d)", walBytes, userBytes)},
			count("persist.checkpoints", d(b.Durability.Checkpoints, a.Durability.Checkpoints)),
		)
	}
	return out
}

// layers are this repository's modules that the replay wraps in spans.
var layers = []string{"server", "anscache", "fairness", "flight", "engine", "uncertain", "core", "typical", "baselines", "persist"}

// traceMetrics replays the window twice in-process, untraced then traced,
// checks the replay against the daemon's answers and derives the span-based
// per-layer metrics. A nil result with no error means the fidelity check
// failed (already reported on standard error).
func traceMetrics(cfg config, w workload, tables []table, warm []*request, win *window, e2eByKind map[string][]time.Duration, answers []answer, runDir string) ([]metric, error) {
	plain, err := runReplay(filepath.Join(runDir, "replay-untraced"), tables, warm, win, false)
	if err != nil {
		return nil, err
	}
	plain.state.man.Close()
	traced, err := runReplay(filepath.Join(runDir, "replay-traced"), tables, warm, win, true)
	if err != nil {
		return nil, err
	}
	defer traced.state.man.Close()
	for _, r := range []*replayRun{plain, traced} {
		if r.failures > 0 {
			return nil, fmt.Errorf("replay: %d requests failed, first: %v", r.failures, r.firstFail)
		}
	}
	fidelity := checkFidelity(traced.state, answers)
	spanFile := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, cfg.seed))
	if err := writeSpans(spanFile, traced.blocks); err != nil {
		return nil, err
	}
	s := summarize(traced.blocks)
	var out []metric
	for _, k := range append(append([]string(nil), queryKinds...), kindAppend) {
		e2e, rp := pct(e2eByKind[k], 0.5), pct(plain.byKind[k], 0.5)
		v := 0.0
		if len(plain.byKind[k]) > 0 {
			v = ms(e2e - rp)
		}
		out = append(out, metric{"server.residual_ms_p50." + k, "ms", v, fmt.Sprintf("(e2e %.4f − replay %.4f, replay %s)", ms(e2e), ms(rp), nOf(plain.byKind[k]))})
	}
	var baselineSpans []time.Duration
	for name, v := range s.byName {
		if strings.HasPrefix(name, "baselines.") {
			baselineSpans = append(baselineSpans, v...)
		}
	}
	dpRuns := float64(traced.dpRuns)
	var dpTotal time.Duration
	for _, v := range s.byName["core.dp"] {
		dpTotal += v
	}
	// spanQ is the q-quantile duration of the spans called span.
	spanQ := func(metricName, span, unit string, q float64) metric {
		d := pct(s.byName[span], q)
		v := ms(d)
		if unit == "us" {
			v = float64(d.Nanoseconds()) / 1e3
		}
		return metric{metricName, unit, v, nOf(s.byName[span])}
	}
	out = append(out,
		spanQ("anscache.get_us_p50", "anscache.get", "us", 0.5),
		spanQ("anscache.put_us_p50", "anscache.put", "us", 0.5),
		spanQ("fairness.acquire_wait_ms_p99", "fairness.acquire", "ms", 0.99),
		spanQ("engine.prepare_ms_p50", "engine.prepare", "ms", 0.5),
		spanQ("engine.prepare_ms_p99", "engine.prepare", "ms", 0.99),
		spanQ("uncertain.clone_validate_ms_p50", "uncertain.clone_validate", "ms", 0.5),
		spanQ("uncertain.index_insert_us_p50", "uncertain.index_insert", "us", 0.5),
		spanQ("core.dp_ms_p50", "core.dp", "ms", 0.5),
		spanQ("core.dp_ms_p99", "core.dp", "ms", 0.99),
		metric{"core.dp_share", "ratio", ratio(float64(s.selfByLayer["core"]), float64(s.requestTime)), fmt.Sprintf("(%.1fms/%.1fms)", ms(s.selfByLayer["core"]), ms(s.requestTime))},
		metric{"core.cells_per_query", "count", ratio(float64(traced.cells), dpRuns), fmt.Sprintf("(per distribution, %d computed)", traced.dpRuns)},
		metric{"core.scan_depth_mean", "count", ratio(float64(traced.depth), dpRuns), ""},
		metric{"core.units_mean", "count", ratio(float64(traced.units), dpRuns), ""},
		metric{"core.cells_per_ms", "1/ms", ratio(float64(traced.cells), ms(dpTotal)), fmt.Sprintf("(%d cells in %.1fms of core.dp spans)", traced.cells, ms(dpTotal))},
		metric{"core.alloc_mb_per_query", "MB", ratio(plain.allocMB, float64(plain.queries)), fmt.Sprintf("(%.1fMB/%d, untraced replay)", plain.allocMB, plain.queries)},
		spanQ("typical.select_ms_p50", "typical.select", "ms", 0.5),
		metric{"baselines.ms_p50", "ms", ms(pct(baselineSpans, 0.5)), nOf(baselineSpans)},
		spanQ("persist.log_append_ms_p50", "persist.log_append", "ms", 0.5),
		spanQ("persist.log_append_ms_p99", "persist.log_append", "ms", 0.99),
		spanQ("persist.checkpoint_ms_p99", "persist.checkpoint", "ms", 0.99),
	)
	nreq := float64(len(s.byName["request"]))
	for _, l := range layers {
		out = append(out, metric{l + ".self_ms_per_req", "ms", ratio(ms(s.selfByLayer[l]), nreq), fmt.Sprintf("(%.1fms over %.0f requests)", ms(s.selfByLayer[l]), nreq)})
	}
	out = append(out,
		metric{"trace.coverage_ratio", "ratio", ratio(float64(s.covered), float64(s.requestTime)), fmt.Sprintf("(%.1fms/%.1fms)", ms(s.covered), ms(s.requestTime))},
		metric{"trace.overhead_ratio", "ratio", ratio(float64(traced.reqTime), float64(plain.reqTime)) - 1, fmt.Sprintf("(%.1fms traced / %.1fms untraced)", ms(traced.reqTime), ms(plain.reqTime))},
	)
	fmt.Fprintf(os.Stderr, "perfbench: spans of %d replayed requests written to %s\n", len(s.byName["request"]), spanFile)
	if fidelity != nil {
		fmt.Fprintln(os.Stderr, "perfbench: REPLAY FIDELITY CHECK FAILED:", fidelity)
		return nil, nil
	}
	return out, nil
}

// gmeanMS is the geometric mean of the latencies in ms; 0 for none. A
// kind's queries mix classes whose costs differ by up to 60x, and the
// median of such a mix falls in a gap between classes, where it jumps with
// the draw; the geometric mean moves by a class's speed-up times the class's
// share of the samples.
func gmeanMS(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range v {
		sum += math.Log(ms(d))
	}
	return math.Exp(sum / float64(len(v)))
}

// pct is the nearest-rank q-quantile; 0 for no samples.
func pct(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nOf(v []time.Duration) string { return fmt.Sprintf("(n=%d)", len(v)) }

func joinF(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
