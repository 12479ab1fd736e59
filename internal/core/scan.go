package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/diskfault"
	"repro/internal/grn"
	"repro/internal/mi"
	"repro/internal/perm"
	"repro/internal/tile"
	"repro/internal/trace"
)

// This file is the one pair-tile scan every engine runs: the commit log
// (tileLog), the pooled-null threshold (nullThreshold), and the
// per-worker tile loop (tileScan.run). The engines differ only in how
// they schedule it — a goroutine pool under cfg.Policy (host.go) or one
// worker per MPI rank with a static cyclic deal (cluster.go) — and in
// how a worker binds a tile's rows (resident, or staged from the
// out-of-core panel store).

// scanWorker is one worker's scan apparatus: a kernel and its
// workspace.
type scanWorker struct {
	k  *pairKernel
	ws *mi.Workspace
	// bind, when non-nil, makes tile t's rows available to k and
	// returns the offsets that map a global pair (i, j) to the kernel's
	// local indices (i-di, j-dj). nil means resident rows with global
	// indices.
	bind func(t tile.Tile) (di, dj int, err error)
}

// nullPair adds pair (a, b)'s q permuted MI values to null.
func (sw scanWorker) nullPair(a, b int, null *perm.Null) error {
	if sw.bind != nil {
		// A single-pair tile stages a and b as the only local rows.
		di, dj, err := sw.bind(tile.Tile{I0: a, I1: a + 1, J0: b, J1: b + 1})
		if err != nil {
			return err
		}
		a, b = a-di, b-dj
	}
	for p := 0; p < sw.k.pool.Q(); p++ {
		null.Add(sw.k.miPermuted(a, b, p, sw.ws))
	}
	return nil
}

// workerStats is one worker's account of a tile scan.
type workerStats struct {
	busy      float64    // seconds inside the tile loop
	tileBytes int64      // workspace scratch
	edges     []grn.Edge // committed edges: a cluster rank's gather payload
}

// foldWorkers publishes the per-worker accounts: the tile working set
// takes the largest worker's, and the imbalance is max/mean busy time.
func foldWorkers(res *Result, stats []workerStats) {
	busy := make([]float64, len(stats))
	for w, st := range stats {
		busy[w] = st.busy
		if st.tileBytes > res.PeakTileBytes {
			res.PeakTileBytes = st.tileBytes
		}
	}
	res.Imbalance = tile.Imbalance(busy)
}

// fanOut runs f(0..nw-1) on nw goroutines (inline when nw is 1) and
// returns the first error in worker order.
func fanOut(nw int, f func(w int) error) error {
	if nw == 1 {
		return f(0)
	}
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = f(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nullThreshold is phase 3: it draws the seed-determined null-pair
// sample, keeps the cyclic share (rank, size) of it — all of it when
// size is 1 — splits that share contiguously over the workers, and
// pools the permuted MI values into one perm.Null. gather, when
// non-nil, exchanges the pooled values between ranks (the cluster's
// Allgatherv) before the threshold is read off. The sample and the
// permutation pool depend only on the seed, and the pooled null is
// order-independent, so every engine and world size derives the
// identical I_alpha.
func nullThreshold(cfg Config, n, rank, size int, workers []scanWorker, stop func() error, gather func([]float64) [][]float64) (threshold float64, nullSize int, err error) {
	all := sampleNullPairs(cfg.Seed, n, cfg.NullSamplePairs)
	pairs := make([][2]int, 0, len(all)/size+1)
	for idx := rank; idx < len(all); idx += size {
		pairs = append(pairs, all[idx])
	}
	nw := len(workers)
	if nw > len(pairs) && len(pairs) > 0 {
		nw = len(pairs)
	}
	nulls := make([]perm.Null, nw)
	err = fanOut(nw, func(w int) error {
		for _, pr := range pairs[w*len(pairs)/nw : (w+1)*len(pairs)/nw] {
			if err := stop(); err != nil {
				return err
			}
			if err := workers[w].nullPair(pr[0], pr[1], &nulls[w]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	pooled := &perm.Null{}
	for w := range nulls {
		pooled.Merge(&nulls[w])
	}
	if gather != nil {
		parts := gather(pooled.Values())
		pooled = &perm.Null{}
		for _, vals := range parts {
			pooled.AddAll(vals)
		}
	}
	if pooled.Len() > 0 {
		threshold = pooled.Threshold(cfg.Alpha)
	}
	return threshold, pooled.Len(), nil
}

// tileLog is the one tile-commit log: the checkpoint state (done
// bitmap, per-tile evaluation counts, edges, threshold) plus this
// session's work counters. Workers commit each finished tile under one
// mutex. With a CheckpointPath the log is the resumable checkpoint —
// loaded when opened, saved every CheckpointEvery commits and flushed
// at scan end — otherwise it lives in memory. Either way every engine
// assembles its network from it.
type tileLog struct {
	mu      sync.Mutex
	state   *checkpoint.State
	resumed bool // state came from a valid checkpoint, threshold included

	// This session's committed work: the PairsEvaluated counter. Tiles
	// an earlier session committed are not counted; tiles an aborted
	// cluster attempt committed in this session are.
	pairEvals int64

	fsys      diskfault.FS
	path      string
	every     int
	sinceSave int
	saveErr   error
}

// openTileLog resumes from cfg.CheckpointPath when it names a valid
// checkpoint and starts a fresh log otherwise.
func openTileLog(cfg Config, fp checkpoint.Fingerprint, nTiles int, res *Result) (*tileLog, error) {
	l := &tileLog{fsys: cfg.FS, path: cfg.CheckpointPath, every: cfg.CheckpointEvery}
	if l.path == "" {
		l.state = checkpoint.NewState(fp, nTiles)
		return l, nil
	}
	var err error
	l.state, l.resumed, err = loadResumeState(cfg, fp, nTiles, res)
	return l, err
}

// loadResumeState is the corruption-tolerant checkpoint load every
// engine shares. A valid checkpoint (primary or its ".prev" rotation)
// resumes the scan; a missing one starts fresh; a checkpoint whose
// every copy fails integrity checks ALSO starts fresh — counted in
// res.CheckpointRecoveries, never a run failure, because losing a
// resume point costs recomputation while refusing the job costs the
// result. A fingerprint mismatch on a VALID checkpoint stays a hard
// error: that is a configuration conflict, not disk damage.
func loadResumeState(cfg Config, fp checkpoint.Fingerprint, nTiles int, res *Result) (state *checkpoint.State, resumed bool, err error) {
	state, err = checkpoint.LoadFileFS(cfg.FS, cfg.CheckpointPath)
	var ce *checkpoint.CorruptError
	if errors.As(err, &ce) {
		res.CheckpointRecoveries++
		state, err = nil, nil
	}
	if err != nil {
		return nil, false, err
	}
	if state != nil {
		if verr := state.Validate(fp, nTiles); verr != nil {
			return nil, false, verr
		}
		return state, true, nil
	}
	return checkpoint.NewState(fp, nTiles), false, nil
}

// pending lists the tiles of [lo, hi) not yet committed.
func (l *tileLog) pending(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for ti := lo; ti < hi; ti++ {
		if !l.state.Done[ti] {
			out = append(out, ti)
		}
	}
	return out
}

// commit records a finished tile and persists opportunistically.
// EvalsPerTile is the Phi time model's quantity; with no per-pair
// permutation test it equals the exact-kernel count PairEvalsPerTile.
func (l *tileLog) commit(ti int, pairEvals int64, edges []grn.Edge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state.Done[ti] = true
	l.state.EvalsPerTile[ti] = pairEvals
	l.state.PairEvalsPerTile[ti] = pairEvals
	l.state.Edges = append(l.state.Edges, edges...)
	l.pairEvals += pairEvals
	if l.path == "" {
		return
	}
	l.sinceSave++
	if l.sinceSave >= l.every {
		l.saveLocked()
	}
}

func (l *tileLog) saveLocked() {
	if err := checkpoint.SaveFileFS(l.fsys, l.path, l.state); err != nil && l.saveErr == nil {
		l.saveErr = err
	}
	l.sinceSave = 0
}

// flush saves a file-backed log and returns the first save error.
func (l *tileLog) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.path != "" {
		l.saveLocked()
	}
	return l.saveErr
}

// publish reports the session counters and the network of every
// committed tile, this session's and earlier ones'.
func (l *tileLog) publish(res *Result, n int) {
	res.PairsEvaluated = l.pairEvals
	net := grn.New(n)
	for _, e := range l.state.Edges {
		net.AddEdge(e.I, e.J, e.Weight)
	}
	res.Network = net
}

// tileScan is phase 4's shared state: the tiles, the commit log, the
// observability hooks, and the pending list the scheduler indexes.
type tileScan struct {
	tiles    []tile.Tile
	log      *tileLog
	pending  []int
	trace    *trace.Recorder
	progress func(done, total int)
	total    int          // tiles pending when the scan began
	done     atomic.Int64 // tiles committed since
}

func newTileScan(cfg Config, tiles []tile.Tile, log *tileLog, pending []int) *tileScan {
	return &tileScan{
		tiles: tiles, log: log, pending: pending,
		trace: cfg.Trace, progress: cfg.Progress, total: len(pending),
	}
}

// run is the tile loop, written once for every engine: worker w takes
// the next pending tile from sched, binds its rows, decides every pair,
// commits the tile, and reports it to the trace and progress hooks. It
// stops when sched runs dry or stop reports an error, which it returns.
func (s *tileScan) run(w int, sched tile.Scheduler, stop func() error, sw scanWorker) (st workerStats, err error) {
	st.tileBytes = int64(sw.ws.Bytes())
	start := time.Now()
	for {
		pi := sched.Next(w)
		if pi == -1 {
			break
		}
		if err = stop(); err != nil {
			break
		}
		ti := s.pending[pi]
		t := s.tiles[ti]
		var endSpan func()
		if s.trace != nil {
			endSpan = s.trace.Span(w, fmt.Sprintf("tile-%d %s", ti, t))
		}
		var di, dj int
		if sw.bind != nil {
			if di, dj, err = sw.bind(t); err != nil {
				break
			}
		}
		var edges []grn.Edge
		t.ForEachPair(func(i, j int) {
			if obs, sig := sw.k.decide(i-di, j-dj, sw.ws); sig {
				edges = append(edges, grn.Edge{I: i, J: j, Weight: obs})
			}
		})
		s.log.commit(ti, int64(t.Pairs()), edges)
		st.edges = append(st.edges, edges...)
		if endSpan != nil {
			endSpan()
		}
		if s.progress != nil {
			s.progress(int(s.done.Add(1)), s.total)
		}
	}
	st.busy = time.Since(start).Seconds()
	return st, err
}
