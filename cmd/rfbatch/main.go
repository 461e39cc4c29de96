// Command rfbatch runs a user-defined sweep matrix — benchmark ×
// architecture × ports × policy — from a JSON specification, through the
// cached parallel sweep engine (the public rf package).
//
// Usage:
//
//	rfbatch -spec sweep.json [-n instructions] [-p parallelism]
//	        [-csv | -ndjson]
//	        [-store dir [-store-max-mb n]]
//	        [-store-remote url,... [-store-shards n]] [-v]
//	rfbatch -spec sweep.json -remote http://coordinator:8090 [-api-key k]
//	        [-csv | -ndjson]
//	rfbatch -query q.json -remote http://coordinator:8090 [-sweep id]
//	        [-csv | -table]
//	rfbatch -query q.json -from rows.ndjson -spec sweep.json [-sweep id]
//	        [-csv | -table]
//	rfbatch -example
//	rfbatch -version
//
// With -remote, the sweep runs on an rfserved instance (typically a
// -dispatch coordinator fronting a worker fleet) instead of this
// machine: the spec is submitted through the rf/client SDK and the
// result stream is reassembled into the same JSON/CSV/NDJSON report a
// local run emits. Results the coordinator's store already holds cost
// zero simulations. Against a multi-tenant server, -api-key (or the
// RF_API_KEY environment variable) authenticates the submission.
//
// With -query, rfbatch evaluates a warehouse query document — filtered
// row pages, grouped aggregates, Pareto frontiers, or per-architecture
// figure series — instead of running a sweep. Against -remote the
// server's columnar warehouse answers (GET/POST /v1/query) and no row
// ever streams; locally the same evaluator runs over a saved NDJSON
// row stream (-from) re-expanded against its spec. The two paths emit
// byte-identical documents for the same rows, so a server-side figure
// can be checked against a local re-aggregation at any time. -table
// renders a series result as the benchmark × architecture IPC grid of
// the paper's figures.
//
// The report (one row per run, plus cache hit/miss totals) is written to
// stdout as JSON, as CSV with -csv, or as NDJSON (one row per line, the
// exact format the rfserved service streams) with -ndjson. Repeated
// configurations — across architectures, or across repeated sweeps in one
// process — are simulated once and reported with "cached": true.
//
// With -store, results are additionally persisted in a disk-backed
// content-addressed store (internal/store), so repeating a batch — or
// re-running it after a crash, or sharing the store directory with an
// rfserved instance — resumes from previous results instead of
// recomputing them. -store-remote adds remote tiers on top: rfserved
// object APIs (comma-separated) consulted with hedged fetches on a
// local miss, so a batch run can reuse a fleet's accumulated results
// without submitting to it. Remote hits are promoted into the local
// store (when -store is set) and local writes replicate back
// asynchronously; -store-shards rendezvous-routes keys across several
// remotes. RF_API_KEY (or -api-key) authenticates the tier requests.
//
// An example specification (print it with -example):
//
//	{
//	  "schema": 1,
//	  "name": "ports-x-policy",
//	  "instructions": 60000,
//	  "benchmarks": ["compress", "swim"],
//	  "architectures": [
//	    {"kind": "1cycle", "read_ports": [4, 6], "write_ports": [3]},
//	    {"kind": "rfcache", "read_ports": [4], "write_ports": [3],
//	     "buses": [2], "caching": ["nonbypass", "ready"]}
//	  ]
//	}
//
// Every architecture entry expands to the cross product of its dimension
// lists; empty lists default to a single family-appropriate value (0 ports
// meaning unlimited). Empty "benchmarks" runs all 18 SPEC95 proxies. The
// "schema" stamp is optional and defaults to the current version;
// architecture kinds resolve through the rf family registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/store"
	"repro/rf"
	"repro/rf/client"
)

const exampleSpec = `{
  "schema": 1,
  "name": "ports-x-policy",
  "instructions": 60000,
  "benchmarks": ["compress", "swim"],
  "architectures": [
    {"kind": "1cycle", "read_ports": [4, 6], "write_ports": [3]},
    {"kind": "rfcache", "read_ports": [4], "write_ports": [3],
     "buses": [2], "caching": ["nonbypass", "ready"]}
  ]
}
`

func main() {
	var (
		specPath   = flag.String("spec", "", "JSON sweep specification (required; see -example)")
		n          = flag.Uint64("n", 0, "override the spec's per-run instruction budget")
		par        = flag.Int("p", 0, "override the spec's parallelism bound")
		asCSV      = flag.Bool("csv", false, "emit CSV instead of JSON")
		asNDJSON   = flag.Bool("ndjson", false, "emit NDJSON rows (the rfserved stream format) instead of JSON")
		storeDir   = flag.String("store", "", "persist results in this disk-backed store directory; repeated runs resume instead of recomputing")
		storeMaxMB = flag.Int64("store-max-mb", 0, "store size cap in MiB before LRU eviction (0: unlimited)")
		storeRem   = flag.String("store-remote", "", "comma-separated rfserved base URLs consulted as remote store tiers on a local miss (hedged)")
		storeShard = flag.Int("store-shards", 0, "rendezvous-route keys across several -store-remote tiers with this shard-bucket count (0: flag order)")
		remote     = flag.String("remote", "", "submit the sweep to this rfserved URL instead of simulating locally")
		apiKey     = flag.String("api-key", "", "tenant API key for -remote against a multi-tenant server (also: RF_API_KEY)")
		queryPath  = flag.String("query", "", "evaluate this warehouse query document instead of running a sweep: server-side with -remote, else locally over -from rows against -spec")
		fromPath   = flag.String("from", "", "query mode: saved NDJSON row stream (an -ndjson report or rfserved results stream) to aggregate locally")
		sweepID    = flag.String("sweep", "", "query mode: sweep id — filters the remote warehouse / labels the local rows, so both sides emit identical documents")
		asTable    = flag.Bool("table", false, "query mode: render the result as a fixed-width figure-style table")
		verbose    = flag.Bool("v", false, "print per-run progress to stderr")
		example    = flag.Bool("example", false, "print an example spec and exit")
		version    = flag.Bool("version", false, "print the module version and API schema version, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("rfbatch %s (schema %d)\n", rf.ModuleVersion(), rf.SchemaVersion)
		return
	}
	if *example {
		fmt.Print(exampleSpec)
		return
	}
	if *queryPath != "" {
		if *asNDJSON {
			fmt.Fprintln(os.Stderr, "rfbatch: -ndjson does not apply to -query (results are documents, not row streams)")
			os.Exit(2)
		}
		if *asCSV && *asTable {
			fmt.Fprintln(os.Stderr, "rfbatch: -csv and -table are mutually exclusive")
			os.Exit(2)
		}
		key := *apiKey
		if key == "" {
			key = os.Getenv("RF_API_KEY")
		}
		if err := runQuery(*queryPath, *remote, key, *fromPath, *specPath, *sweepID, *asCSV, *asTable); err != nil {
			fatal(err)
		}
		return
	}
	if *fromPath != "" || *sweepID != "" || *asTable {
		fmt.Fprintln(os.Stderr, "rfbatch: -from/-sweep/-table apply only to -query mode")
		os.Exit(2)
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "rfbatch: -spec is required (see -example)")
		os.Exit(2)
	}
	if *asCSV && *asNDJSON {
		fmt.Fprintln(os.Stderr, "rfbatch: -csv and -ndjson are mutually exclusive")
		os.Exit(2)
	}
	if *remote != "" && (*storeDir != "" || *storeRem != "") {
		fmt.Fprintln(os.Stderr, "rfbatch: -store/-store-remote do not apply to -remote runs (the service owns the store)")
		os.Exit(2)
	}

	f, err := os.Open(*specPath)
	if err != nil {
		fatal(err)
	}
	spec, err := rf.ParseSpec(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *n > 0 {
		spec.Instructions = *n
	}
	if *par > 0 {
		spec.Parallelism = *par
	}

	if *remote != "" {
		key := *apiKey
		if key == "" {
			key = os.Getenv("RF_API_KEY")
		}
		if err := runRemote(*remote, key, spec, *asCSV, *asNDJSON); err != nil {
			fatal(err)
		}
		return
	}

	jobs, err := spec.Jobs()
	if err != nil {
		fatal(err)
	}

	cfg := rf.RunnerConfig{Parallelism: spec.Parallelism}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMaxMB << 20})
		if err != nil {
			fatal(err)
		}
	}
	var tiers *store.Tiers
	if *storeRem != "" {
		key := *apiKey
		if key == "" {
			key = os.Getenv("RF_API_KEY")
		}
		ropts := store.RemoteOptions{APIKey: key}
		var remotes []store.Tier
		for _, u := range strings.Split(*storeRem, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			remotes = append(remotes, store.Tier{
				Name: "remote", ID: u,
				Backend:      store.NewRemote(u, ropts),
				WriteThrough: true,
			})
		}
		tiers = store.NewTiers(store.TierConfig{
			Local: st, Remotes: remotes, Shards: *storeShard,
		})
		cfg.Cache = rf.Tiered(rf.NewMemCache(), tiers)
	} else if st != nil {
		cfg.Cache = rf.Tiered(rf.NewMemCache(), st)
	}
	if *verbose {
		cfg.OnProgress = func(p rf.Progress) {
			tag := ""
			if p.Cached {
				tag = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s × %s%s\n",
				p.Done, p.Total, p.Job.Profile.Name, p.Job.Config.RF.Name, tag)
		}
	}
	runner := rf.NewRunner(cfg)
	outs := runner.RunOutcomes(jobs, 0)
	rep := rf.NewReport(spec.Name, jobs, outs, runner.CacheStats())

	switch {
	case *asCSV:
		err = rep.WriteCSV(os.Stdout)
	case *asNDJSON:
		err = rep.WriteNDJSON(os.Stdout)
	default:
		err = rep.WriteJSON(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	stc := rep.Cache
	fmt.Fprintf(os.Stderr, "rfbatch: %d runs (%d simulated, %d cache hits)\n",
		len(rep.Rows), stc.Misses, stc.Hits)
	if tiers != nil {
		ts := tiers.Stats()
		fmt.Fprintf(os.Stderr, "rfbatch: remote tiers: %d hits, %d hedged (%d wins), %d errors\n",
			ts.Hits["remote"], ts.HedgedFetches, ts.HedgeWins, ts.RemoteErrors)
		tiers.Close()
	}
	if st != nil {
		entries, bytes := st.Len(), st.SizeBytes()
		if err := st.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rfbatch: store %s holds %d results (%.1f MiB)\n",
			*storeDir, entries, float64(bytes)/(1<<20))
	}
}

// runRemote submits the spec to an rfserved instance through rf/client,
// streams the result rows, and emits the same report a local run would.
// The NDJSON form is a verbatim copy of the service stream
// (byte-identical to a local -ndjson run of the same spec); JSON and CSV
// are reassembled from it via rf.ReadRows. The client survives a
// mid-stream disconnect by falling back to status polling and resuming
// the stream.
func runRemote(base, apiKey string, spec *rf.Spec, asCSV, asNDJSON bool) error {
	ctx := context.Background()
	opts := []client.Option{client.WithLogf(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "rfbatch: "+format+"\n", args...)
	})}
	if apiKey != "" {
		opts = append(opts, client.WithAPIKey(apiKey))
	}
	cl := client.New(base, opts...)
	ack, err := cl.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("%s rejected the sweep: %w", cl.BaseURL(), err)
	}
	fmt.Fprintf(os.Stderr, "rfbatch: sweep %s (%d jobs) running on %s\n", ack.ID, ack.Jobs, cl.BaseURL())

	var rep *rf.Report
	switch {
	case asNDJSON:
		if err := cl.StreamResults(ctx, ack.ID, os.Stdout); err != nil {
			return err
		}
	default:
		// Decode rows as they stream instead of buffering the raw NDJSON:
		// the pipe's write end carries the stream (with the client's
		// mid-stream resume intact), the read end feeds the decoder.
		pr, pw := io.Pipe()
		go func() {
			pw.CloseWithError(cl.StreamResults(ctx, ack.ID, pw))
		}()
		rows, err := rf.ReadRows(pr)
		pr.Close()
		if err != nil {
			return err
		}
		rep = &rf.Report{Name: spec.Name, Rows: rows}
	}

	// The status document carries the completion counts for the summary
	// (and, for reassembled reports, the cache section). A sweep that did
	// not verifiably end in "done" — including a status fetch that fails
	// outright — must fail the run: a truncated stream is otherwise
	// indistinguishable from success.
	st, err := cl.Status(ctx, ack.ID)
	if err != nil {
		return fmt.Errorf("fetching status of sweep %s: %w", ack.ID, err)
	}
	if st.State != "done" {
		return fmt.Errorf("sweep %s ended %q (%d/%d jobs completed)",
			ack.ID, st.State, st.Completed, st.Total)
	}

	if rep != nil {
		rep.Cache = rf.CacheStats{Hits: uint64(st.Cached), Misses: uint64(st.Simulated)}
		if asCSV {
			err = rep.WriteCSV(os.Stdout)
		} else {
			err = rep.WriteJSON(os.Stdout)
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "rfbatch: %d runs (%d simulated, %d cache hits) on %s\n",
		st.Completed, st.Simulated, st.Cached, cl.BaseURL())
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rfbatch: %v\n", err)
	os.Exit(1)
}
