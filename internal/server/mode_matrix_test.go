package server

// Mode-matrix pin: every combination of the server's opt-in modes —
// tenants, journal, warehouse, coordinator with an in-process worker,
// tiered store — must serve the same bytes as a solo rfbatch render of
// the same spec, through the real simulator. Journaled cells also crash
// the server mid-sweep at a seeded row and resume it on the same
// journal, and the resumed stream must be byte-identical too.

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/rf/api"
)

// modeCell is one point of the mode matrix.
type modeCell struct {
	tenants, journal, warehouse, fleet, tiered bool
}

func (c modeCell) String() string {
	name := ""
	for _, m := range []struct {
		on   bool
		name string
	}{
		{c.tenants, "tenants"}, {c.journal, "journal"}, {c.warehouse, "warehouse"},
		{c.fleet, "fleet"}, {c.tiered, "tiered"},
	} {
		if m.on {
			name += "+" + m.name
		}
	}
	if name == "" {
		return "plain"
	}
	return name[1:]
}

// gatedCache passes Puts through until budget is spent, then parks every
// further Put until release closes. A parked Put holds back the job's
// row, so the crash point falls between rows whatever simulates.
type gatedCache struct {
	sweep.Cache
	budget  atomic.Int64
	release chan struct{}
	parked  chan struct{}
	once    sync.Once
}

func newGatedCache(c sweep.Cache, budget int) *gatedCache {
	g := &gatedCache{Cache: c, release: make(chan struct{}), parked: make(chan struct{})}
	g.budget.Store(int64(budget))
	return g
}

func (g *gatedCache) Put(k sweep.Key, res sim.Result) {
	if g.budget.Add(-1) < 0 {
		g.once.Do(func() { close(g.parked) })
		<-g.release
	}
	g.Cache.Put(k, res)
}

// cellDirs are a cell's on-disk locations, shared by both lives of a
// journaled cell.
type cellDirs struct{ wal, warehouse, store string }

// modeKey is the API key every cell sends; untenanted servers ignore it.
const modeKey = "key-big"

// modeLife is one server process of a cell.
type modeLife struct {
	srv        *Server
	ts         *httptest.Server
	journal    *wal.WAL
	stopWorker func()
}

// startModeLife starts a server for cell c over the cell's directories,
// with cache as its result cache. Nothing is registered for cleanup: the
// caller decides whether the life ends in Shutdown or in a crash.
func startModeLife(t *testing.T, c modeCell, dirs cellDirs, cache sweep.Cache) *modeLife {
	t.Helper()
	cfg := Config{Cache: cache}
	if c.tenants {
		cfg.Tenants = testRegistry(t)
	}
	l := &modeLife{}
	if c.journal {
		l.journal = openWAL(t, dirs.wal)
		cfg.Journal = l.journal
	}
	if c.warehouse {
		wh, err := warehouse.Open(dirs.warehouse, warehouse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Warehouse = wh
	}
	if c.fleet {
		// A short lease keeps the long-poll hold, and so the sequential
		// spec's per-row round trip, brief.
		cfg.Dispatcher = dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Second})
	}
	l.srv = New(cfg)
	l.ts = httptest.NewServer(l.srv)
	if c.fleet {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- dispatch.RunWorker(ctx, dispatch.WorkerConfig{
				Coordinator: l.ts.URL, Name: "matrix", Capacity: 1,
			})
		}()
		l.stopWorker = func() {
			cancel()
			<-done
		}
	}
	return l
}

// crash kills the life without Shutdown: the worker and the HTTP front
// end stop and the journal's file handles close, but the server flushes
// nothing.
func (l *modeLife) crash() {
	if l.stopWorker != nil {
		l.stopWorker()
		l.stopWorker = nil
	}
	l.ts.Close()
	if l.journal != nil {
		l.journal.Close()
	}
}

// stop ends the life in an orderly way.
func (l *modeLife) stop() {
	if l.stopWorker != nil {
		l.stopWorker()
		l.stopWorker = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.srv.Shutdown(ctx)
	l.ts.Close()
	if l.journal != nil {
		l.journal.Close()
	}
}

// statusKeyed fetches a sweep's status with the matrix API key.
func statusKeyed(t *testing.T, base, statusURL string) api.SweepStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+statusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.KeyHeader, modeKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// cellCache builds a life's result cache: a MemCache over the cell's
// disk store when tiered, a bare MemCache otherwise.
func cellCache(t *testing.T, c modeCell, dirs cellDirs) sweep.Cache {
	t.Helper()
	if !c.tiered {
		return sweep.NewMemCache()
	}
	st, err := store.Open(dirs.store, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Tiered(sweep.NewMemCache(), st)
}

func TestModeMatrix(t *testing.T) {
	want := rfbatchNDJSON(t, resumeSpec, sweep.Simulate)
	rng := rand.New(rand.NewPCG(12, 2000))
	for bits := 0; bits < 32; bits++ {
		c := modeCell{
			tenants: bits&1 != 0, journal: bits&2 != 0, warehouse: bits&4 != 0,
			fleet: bits&8 != 0, tiered: bits&16 != 0,
		}
		// Drawn outside the subtest so the crash rows do not depend on
		// which cells a -run filter selects.
		crashAt := rng.IntN(6)
		t.Run(c.String(), func(t *testing.T) {
			dirs := cellDirs{wal: t.TempDir(), warehouse: t.TempDir(), store: t.TempDir()}
			if !c.journal {
				l := startModeLife(t, c, dirs, cellCache(t, c, dirs))
				t.Cleanup(l.stop)
				if got := submitAndStream(t, l, resumeSpec); got != want {
					t.Errorf("stream differs from the solo render:\n--- %s ---\n%s--- solo ---\n%s", c, got, want)
				}
				return
			}

			// First life: crashAt rows complete, the next Put parks, and
			// the server dies without Shutdown.
			gate := newGatedCache(cellCache(t, c, dirs), crashAt)
			l1 := startModeLife(t, c, dirs, gate)
			t.Cleanup(func() {
				close(gate.release)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				l1.srv.Shutdown(ctx)
			})
			ack := submitKeyed(t, l1.ts.URL, resumeSpec)
			select {
			case <-gate.parked:
			case <-time.After(30 * time.Second):
				t.Fatalf("sweep never reached row %d", crashAt)
			}
			if st := statusKeyed(t, l1.ts.URL, ack.StatusURL); st.Completed != crashAt {
				t.Fatalf("crash point: completed=%d, want %d", st.Completed, crashAt)
			}
			l1.crash()

			// Second life on the same journal and directories.
			l2 := startModeLife(t, c, dirs, cellCache(t, c, dirs))
			t.Cleanup(l2.stop)
			got := streamKeyed(t, l2.ts.URL, ack.ResultsURL, modeKey)
			if got != want {
				t.Errorf("resumed stream (crash after %d rows) differs from the solo render:\n--- %s ---\n%s--- solo ---\n%s", crashAt, c, got, want)
			}
		})
	}
}

// submitKeyed posts a spec with the matrix API key and decodes the
// acknowledgment.
func submitKeyed(t *testing.T, base, spec string) api.SubmitResponse {
	t.Helper()
	resp := postSpec(t, base, modeKey, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, decodeError(t, resp).Error)
	}
	var ack api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// submitAndStream submits spec to a life and reads its full stream.
func submitAndStream(t *testing.T, l *modeLife, spec string) string {
	t.Helper()
	ack := submitKeyed(t, l.ts.URL, spec)
	if ack.Jobs != 6 {
		t.Fatalf("spec expanded to %d jobs, want 6", ack.Jobs)
	}
	return streamKeyed(t, l.ts.URL, ack.ResultsURL, modeKey)
}
