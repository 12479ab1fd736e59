package core

import (
	"context"
	"fmt"

	"repro/internal/bspline"
	"repro/internal/mat"
	"repro/internal/mi"
	"repro/internal/panelstore"
	"repro/internal/perm"
	"repro/internal/tile"
)

// MinMemoryBudget reports the smallest admissible Config.MemoryBudget
// for an out-of-core run over a genes×samples expression matrix under
// cfg: every worker's fixed scratch, the panel store's three fixed
// buffers, and the pinned-panel floor (each of the Workers workers pins
// at most two panels at once). It uses the exact accounting oocScan
// enforces, so a run configured with this budget is guaranteed to be
// accepted — and to round-trip panels through the spill file, since the
// store keeps nothing resident beyond its pins.
func MinMemoryBudget(genes, samples int, cfg Config) (int64, error) {
	cfg.Engine = OutOfCore
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = 1 // placeholder; only the derived sizes matter
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return 0, err
	}
	var idx []int32
	width := samples
	if cfg.Ensemble.Enabled() {
		mSub, serr := cfg.Ensemble.sampleCount(samples)
		if serr != nil {
			return 0, serr
		}
		idx = make([]int32, mSub)
		width = mSub
	}
	pool := perm.MustNewPool(cfg.Seed, width, cfg.Permutations)
	wk := newOOCWorker(basis, pool, cfg, samples, idx)
	panelBytes := int64(cfg.PanelRows) * int64(samples) * 4
	scratch := wk.bytes(basis, cfg)*int64(cfg.Workers) + 3*panelBytes
	maxPins := int64(2 * cfg.Workers)
	if np := int64((genes + cfg.PanelRows - 1) / cfg.PanelRows); np < maxPins {
		maxPins = np
	}
	return scratch + maxPins*panelBytes, nil
}

// oocWorker is one worker's fixed-size apparatus for the out-of-core
// scan. Nothing in it scales with the gene count: the weight matrix,
// estimator, and workspace are all sized to one tile (at most
// 2·TileSize genes), and every tile re-fills them in place.
// Bit-identity with the resident engines follows from the shared
// building blocks: the same rank transform per row, the same stencil
// precompute per gene, the same kernels — only the gene indices are
// tile-local.
type oocWorker struct {
	scanWorker
	tileWM  *bspline.WeightMatrix
	normBuf []float32   // 2·TileSize rank-normalized row copies
	rows    [][]float32 // row views into normBuf for FillPanel
	samples int
	// idx, when non-nil, is the ensemble scan's sample-index view: every
	// staged row is rank-normalized at full width into fullBuf and the
	// idx columns are gathered into the tile-local copy — the exact
	// transform the resident ensemble's FillView applies, so the two
	// paths stay bit-identical. The slice is shared by all workers and
	// rewritten between bootstraps (never mid-scan).
	idx     []int32
	fullBuf []float32
}

// newOOCWorker builds one worker's fixed scratch. samples is the store
// row width; idx, when non-nil, is the ensemble sample-index view (the
// worker's kernels then run at len(idx) width).
func newOOCWorker(basis *bspline.Basis, pool *perm.Pool, cfg Config, samples int, idx []int32) *oocWorker {
	width := samples
	if idx != nil {
		width = len(idx)
	}
	tileWM := bspline.NewPanelWeights(basis, 2*cfg.TileSize, width)
	est := mi.NewEstimator(tileWM)
	k := &pairKernel{est: est, pool: pool, kind: cfg.Kernel, prec: cfg.Precision}
	w := &oocWorker{
		scanWorker: scanWorker{k: k, ws: mi.NewWorkspacePrec(est, cfg.Precision)},
		tileWM:     tileWM,
		normBuf:    make([]float32, 2*cfg.TileSize*width),
		rows:       make([][]float32, 0, 2*cfg.TileSize),
		samples:    width,
		idx:        idx,
	}
	if idx != nil {
		w.fullBuf = make([]float32, samples)
	}
	return w
}

// bytes is the worker's whole scratch footprint — the per-worker term
// of the memory-budget accounting.
func (w *oocWorker) bytes(basis *bspline.Basis, cfg Config) int64 {
	b := bspline.PanelBytes(basis, 2*cfg.TileSize, w.samples)
	b += int64(w.ws.Bytes())
	b += int64(len(w.normBuf)) * 4
	b += int64(len(w.fullBuf)) * 4
	b += int64(2*cfg.TileSize) * 12 // estimator marginal-entropy slices
	return b
}

// stage copies global row g out of the pinned panel into local slot r,
// rank-normalizes the copy, and registers it as local gene r. Pinned
// panel rows are shared with other workers and must stay raw.
func (w *oocWorker) stage(p *panelstore.Panel, g, r int) {
	dst := w.normBuf[r*w.samples : (r+1)*w.samples]
	if w.idx == nil {
		copy(dst, p.Row(g))
		mat.RankNormalizeValues(dst)
	} else {
		// Ensemble view: normalize over the FULL sample set, then gather
		// the bootstrap's columns — matching the resident path, whose
		// FillView gathers stencils of full-set-normalized values.
		copy(w.fullBuf, p.Row(g))
		mat.RankNormalizeValues(w.fullBuf)
		for t, s := range w.idx {
			dst[t] = w.fullBuf[s]
		}
	}
	w.rows = append(w.rows, dst)
}

// loadTile is the worker's row binding: it pins the tile's panels,
// stages its i-rows (and, off the diagonal, its j-rows after them), and
// re-derives weights and marginal entropies for the staged rows. The
// workspace's row keys are invalidated: local indices mean a stale key
// would alias a different gene. It returns the global-to-local index
// offsets; on a diagonal tile both ranges are the same staged rows.
func (w *oocWorker) loadTile(store *panelstore.Store, t tile.Tile) (di, dj int, err error) {
	w.rows = w.rows[:0]
	pinI, err := store.Panel(store.PanelOf(t.I0))
	if err != nil {
		return 0, 0, err
	}
	pinJ := pinI
	if pj := store.PanelOf(t.J0); pj != pinI.Index() {
		pinJ, err = store.Panel(pj)
		if err != nil {
			pinI.Release()
			return 0, 0, err
		}
	}
	nI := t.I1 - t.I0
	for r := 0; r < nI; r++ {
		w.stage(pinI, t.I0+r, r)
	}
	dj = t.J0 // diagonal tile: the j range is the i range
	if t.I0 != t.J0 {
		dj = t.J0 - nI
		for r := 0; r < t.J1-t.J0; r++ {
			w.stage(pinJ, t.J0+r, nI+r)
		}
	}
	if pinJ != pinI {
		pinJ.Release()
	}
	pinI.Release()
	w.tileWM.FillPanel(w.rows)
	w.k.est.Reset(w.tileWM)
	w.ws.InvalidateRowKeys()
	return t.I0, dj, nil
}

// oocWorkers builds the per-worker kits, binds them to the store, and
// carves the store's panel budget out of cfg.MemoryBudget: worker
// scratch is a fixed cost the resident panels must make room for. idx
// is the ensemble sample view (nil for plain scans). It returns the
// workers and the total scratch charge (worker kits plus the store's
// three fixed buffers).
func oocWorkers(store *panelstore.Store, cfg Config, basis *bspline.Basis, pool *perm.Pool, idx []int32) ([]scanWorker, int64, error) {
	workers := make([]scanWorker, cfg.Workers)
	var perWorker int64
	for w := range workers {
		wk := newOOCWorker(basis, pool, cfg, store.Cols(), idx)
		wk.bind = func(t tile.Tile) (int, int, error) { return wk.loadTile(store, t) }
		workers[w] = wk.scanWorker
		perWorker = wk.bytes(basis, cfg)
	}
	scratch := perWorker*int64(cfg.Workers) + 3*store.PanelBytes() // + staging/transpose/io buffers
	maxPins := int64(2 * cfg.Workers)
	if np := int64(store.NumPanels()); np < maxPins {
		maxPins = np
	}
	storeBudget := cfg.MemoryBudget - scratch
	if floor := maxPins * store.PanelBytes(); storeBudget < floor {
		return nil, 0, fmt.Errorf("core: memory budget %d too small: %d workers need %d scratch + %d pinned panel bytes (minimum %d)",
			cfg.MemoryBudget, cfg.Workers, scratch, floor, scratch+floor)
	}
	store.SetBudget(storeBudget)
	return workers, scratch, nil
}

// oocScan is the disk-backed counterpart of hostScan: the same pool
// scheduler and tile loop, but every worker stages its tile's rows
// from the panel store and normalizes/precomputes them per tile, so
// the working set is the memory budget — not the genome. Checkpoints
// share the resident engines' fingerprint, so committed tiles survive
// a kill and are never re-read from the store on resume.
func oocScan(ctx context.Context, store *panelstore.Store, cfg Config, res *Result) error {
	n, m := store.Rows(), store.Cols()
	basis, err := bspline.New(cfg.Order, cfg.Bins)
	if err != nil {
		return err
	}
	pool := perm.MustNewPool(cfg.Seed, m, cfg.Permutations)
	workers, scratch, err := oocWorkers(store, cfg, basis, pool, nil)
	if err != nil {
		return err
	}
	// The peak so far belongs to the ingest phase, whose fixed overhead
	// is the store's three buffers, not the workers' scratch.
	ingestPeak := store.ResetPeak()
	tiles := tile.Decompose(n, cfg.TileSize)
	log, err := openTileLog(cfg, fingerprintDims(n, m, cfg), len(tiles), res)
	if err != nil {
		return err
	}
	if err := scanPool(ctx, cfg, res, n, tiles, log, workers); err != nil {
		return err
	}
	reportStore(res, store, scratch, ingestPeak)
	return nil
}

// reportStore publishes the panel store's counters and the run's
// memory ceiling: the larger of the two phase peaks — resident panels
// plus the store's own buffers during ingest, resident panels plus
// every worker's fixed scratch (and those buffers) during the scan.
// The phases never overlap, so they are not summed.
func reportStore(res *Result, store *panelstore.Store, scratch, ingestPeak int64) {
	st := store.Stats()
	res.PanelHits = st.Hits
	res.PanelLoads = st.Misses
	res.PanelEvictions = st.Evictions
	res.PanelBytesSpilled = st.BytesSpilled
	res.PanelBytesLoaded = st.BytesLoaded
	res.SpillReadRetries += st.LoadRetries
	res.StorePeakBytes = st.PeakBytes
	res.PeakTileBytes = st.PeakBytes + scratch
	if p := ingestPeak + 3*store.PanelBytes(); p > res.PeakTileBytes {
		res.PeakTileBytes = p
	}
}
