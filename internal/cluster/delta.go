package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"pocolo/internal/machine"
	"pocolo/internal/memo"
	"pocolo/internal/parallel"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Delta-driven matrix construction: a MatrixBuilder owns a Matrix across
// placement rounds and recomputes only the cells whose inputs changed.
// Every cell of the performance matrix is a pure function of exactly
// four inputs — the machine platform plus load range (shared by all
// cells), the BE job's fitted model (shared by the row), and the LC
// host's cap/peak-load/model triple (shared by the column) — so each
// cell is identified by a (global, row, column) fingerprint triple.
// Fingerprints are interned to dense uint32 ids from a monotonic
// counter, making the id itself a generation stamp: when an input
// changes, its fingerprint interns to a fresh id and every stale memo
// entry silently stops matching, with no epoch bookkeeping. A
// process-wide memo keyed by the id triple then collapses identical
// cells across rows, columns, pods, builders, and rounds — at fleet
// scale (thousands of hosts drawn from a few capacity classes running
// a few application models) the distinct-cell count is orders of
// magnitude below the cell count.
type cellKey struct {
	global, row, col uint32
}

// DeltaStats counts the work of one matrix build or refresh:
// CellsComputed is the number of estimatePairThroughput evaluations,
// CellsReused the number of cells filled from the memo or from a
// duplicate cell in the same batch. Both are deterministic for a given
// input and memo content regardless of the worker count: distinct cells
// are identified before any parallel work starts. The memo is
// process-wide, so they also depend on what ran before in the process: a
// repeated build finds its cells memoized and counts them reused. Call
// ResetMemo first to count from an empty memo, as a fresh process does.
type DeltaStats struct {
	CellsComputed int
	CellsReused   int
}

func (s *DeltaStats) add(o DeltaStats) {
	s.CellsComputed += o.CellsComputed
	s.CellsReused += o.CellsReused
}

// fingerprints interns cell-input fingerprints to dense ids, and cells
// holds the process-wide cell values keyed by id triple. Each clears
// wholesale at 1<<16 entries, which comfortably holds a hyperscale
// fleet's distinct (machine, model, host-class) combinations while
// bounding worst-case memory near a few megabytes. Ids come from a
// counter that starts at 1 and is never rewound, so a cleared intern
// table cannot alias an old fingerprint onto a new one: stale ids held by
// live builders simply never match again.
var (
	fingerprints = memo.New[string, uint32](1 << 16)
	cells        = memo.New[cellKey, float64](1 << 16)
	lastFPID     atomic.Uint32
)

// internFP maps a fingerprint string to a stable dense id.
func internFP(fp string) uint32 {
	id, _, _ := fingerprints.Get(fp, func() (uint32, error) { return lastFPID.Add(1), nil })
	return id
}

// globalFP fingerprints the cell inputs shared by the whole matrix.
// Like every fingerprint here it is exact-bit (utility.ModelKey's
// encoding) and process-local: it only has to separate the interned
// equivalence classes of one process.
func globalFP(cfg machine.Config, loads []float64) string {
	b := make([]byte, 0, 256)
	b = utility.AppendKeyString(b, cfg.Name)
	for _, n := range []int{cfg.Cores, cfg.LLCWays, cfg.MemoryGB, cfg.StorageGB} {
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, ',')
	}
	for _, f := range []float64{cfg.LLCMB, cfg.MinFreqGHz, cfg.MaxFreqGHz, cfg.FreqStepGHz, cfg.IdlePowerW, cfg.ActivePowerW} {
		b = utility.AppendKeyFloat(b, f)
	}
	b = append(b, "loads"...)
	for _, l := range loads {
		b = utility.AppendKeyFloat(b, l)
	}
	return string(b)
}

// downCell is the value of every cell in a down host's column: strictly
// below every real cell (cells are BE throughputs, never negative), so
// an optimal pod never seats a job on a down host while it has a free
// live one.
const downCell = -1.0

// downColID is the column fingerprint id of a down host. internFP never
// issues 0, so a down column matches no memo entry, and computeCells
// fills its cells with downCell without reading or writing the memo.
const downColID = 0

// colFP fingerprints exactly the LC-side inputs estimatePairThroughput
// reads: the host's peak load, its provisioned power cap, and its fitted
// model. Names and other spec fields are deliberately excluded so
// per-host instance specs collapse onto their capacity class.
func colFP(lc *workload.Spec, lcModel *utility.Model) string {
	b := make([]byte, 0, 224)
	b = utility.AppendKeyFloat(b, lc.PeakLoad)
	b = utility.AppendKeyFloat(b, lc.ProvisionedPowerW)
	return string(utility.AppendModelKey(b, lcModel))
}

// MatrixBuilder owns a Matrix and rebuilds it incrementally as host caps
// and job models drift between placement rounds. Unlike BuildMatrix it
// permits zero BE rows (an empty pod still tracks its hosts' column
// fingerprints so the rebalancer can price migrations into it) and it
// supports row add/remove with the same swap-remove semantics as
// assign.Incremental, so a pod's builder and solver stay index-aligned.
//
// A builder is not safe for concurrent use, but distinct builders are:
// all shared state lives in the process-wide cell memo.
type MatrixBuilder struct {
	machine  machine.Config
	loads    []float64
	workers  int
	models   map[string]*utility.Model
	globalID uint32

	be      []*workload.Spec
	beModel []*utility.Model
	rowID   []uint32

	lc      []*workload.Spec
	lcModel []*utility.Model
	colID   []uint32
	// colPeak and colCap cache the raw spec values behind colID so a
	// refresh can clear a clean column with three comparisons instead of
	// re-rendering its fingerprint; at fleet scale the fingerprint
	// rendering would otherwise dominate a single-host delta.
	colPeak []float64
	colCap  []float64
	// down marks hosts taken out of service (Sharded.SetHostDown). The
	// next Refresh turns a down column's cells into downCell sentinels; a
	// column coming back up is re-fingerprinted and recomputed through
	// the memo like any other dirty column.
	down []bool

	// Refresh's scratch, kept across refreshes: the dirty and changed
	// marks per row and column, the cells to recompute and their old
	// values, and the changed lines it returns.
	rowDirty, colDirty       []bool
	rowChanged, colChanged   []bool
	refs                     []cellRef
	old                      []float64
	changedRows, changedCols []int

	mx    *Matrix
	stats DeltaStats
}

// RefreshResult reports which rows and columns of the matrix actually
// changed value during a Refresh (sorted ascending, nil when none), plus
// the work counters. Delta granularity is rows and columns because those
// are the fingerprint units: a changed job model dirties its row, a
// changed host cap dirties its column. The two slices belong to the
// builder and hold until its next Refresh.
type RefreshResult struct {
	ChangedRows []int
	ChangedCols []int
	Stats       DeltaStats
}

type cellRef struct{ i, j int }

// NewMatrixBuilder validates the configuration and builds the initial
// matrix through the delta-cell memo. cfg.Trace is unused — tracing of
// builder-driven construction is the pod layer's job.
func NewMatrixBuilder(cfg MatrixConfig) (*MatrixBuilder, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.LC) == 0 {
		return nil, errors.New("cluster: need at least one LC application")
	}
	loads := cfg.Loads
	if len(loads) == 0 {
		loads = DefaultLoadRange()
	}
	for _, l := range loads {
		if l <= 0 || l > 1 {
			return nil, fmt.Errorf("cluster: load fraction %v outside (0, 1]", l)
		}
	}
	b := &MatrixBuilder{
		machine:  cfg.Machine,
		loads:    append([]float64(nil), loads...),
		workers:  cfg.Parallel,
		models:   cfg.Models,
		globalID: internFP(globalFP(cfg.Machine, loads)),
		be:       append([]*workload.Spec(nil), cfg.BE...),
		beModel:  make([]*utility.Model, len(cfg.BE)),
		rowID:    make([]uint32, len(cfg.BE)),
		lc:       append([]*workload.Spec(nil), cfg.LC...),
		lcModel:  make([]*utility.Model, len(cfg.LC)),
		colID:    make([]uint32, len(cfg.LC)),
		colPeak:  make([]float64, len(cfg.LC)),
		colCap:   make([]float64, len(cfg.LC)),
		down:     make([]bool, len(cfg.LC)),
		// Refresh's scratch, sized for a dirty row and a dirty column, so
		// that a pod's first re-solve allocates no more than its later ones.
		rowDirty:    make([]bool, len(cfg.BE)),
		rowChanged:  make([]bool, len(cfg.BE)),
		colDirty:    make([]bool, len(cfg.LC)),
		colChanged:  make([]bool, len(cfg.LC)),
		refs:        make([]cellRef, 0, len(cfg.BE)+len(cfg.LC)),
		old:         make([]float64, 0, len(cfg.BE)+len(cfg.LC)),
		changedRows: make([]int, 0, len(cfg.BE)),
		changedCols: make([]int, 0, len(cfg.LC)),
		mx: &Matrix{
			BENames: make([]string, len(cfg.BE)),
			LCNames: make([]string, len(cfg.LC)),
			Value:   make([][]float64, len(cfg.BE)),
		},
	}
	for i, be := range cfg.BE {
		m, ok := cfg.Models[be.Name]
		if !ok {
			return nil, fmt.Errorf("cluster: no fitted model for %s", be.Name)
		}
		b.beModel[i] = m
		b.rowID[i] = internFP(utility.ModelKey(m))
		b.mx.BENames[i] = be.Name
		b.mx.Value[i] = make([]float64, len(cfg.LC))
	}
	for j, lc := range cfg.LC {
		m, ok := cfg.Models[lc.Name]
		if !ok {
			return nil, fmt.Errorf("cluster: no fitted model for %s", lc.Name)
		}
		b.lcModel[j] = m
		b.colID[j] = internFP(colFP(lc, m))
		b.colPeak[j] = lc.PeakLoad
		b.colCap[j] = lc.ProvisionedPowerW
		b.mx.LCNames[j] = lc.Name
	}
	refs := make([]cellRef, 0, len(b.be)*len(b.lc))
	for i := range b.be {
		for j := range b.lc {
			refs = append(refs, cellRef{i, j})
		}
	}
	if _, err := b.computeCells(refs); err != nil {
		return nil, err
	}
	return b, nil
}

// Matrix returns the live matrix. It is owned by the builder: callers
// must treat it as read-only, and its contents change on every Refresh,
// AddRow, and RemoveRow.
func (b *MatrixBuilder) Matrix() *Matrix { return b.mx }

// Rows returns the current BE row count.
func (b *MatrixBuilder) Rows() int { return len(b.be) }

// Cols returns the LC column count.
func (b *MatrixBuilder) Cols() int { return len(b.lc) }

// Stats returns the cumulative work counters since construction
// (including the initial build).
func (b *MatrixBuilder) Stats() DeltaStats { return b.stats }

// Refresh re-fingerprints dirty rows and columns against the live specs
// and models, recomputes only the cells in dirty rows or columns, and
// reports which rows and columns actually changed value. Specs are
// shared with the caller (caps are read at refresh time) and models are
// re-resolved by name from the configured model map, so in-place cap
// mutations and model replacements are both picked up.
//
// Dirtiness is detected by comparing the raw inputs — the resolved model
// pointer plus, for columns, the spec's peak load and power cap — so a
// clean line costs a few comparisons rather than a fingerprint render.
// Fitted models must therefore be treated as immutable: to change a
// row's model, replace the map entry with a new *Model (mutating an
// existing model in place is not detected anywhere in this package).
func (b *MatrixBuilder) Refresh() (RefreshResult, error) {
	var res RefreshResult
	rowDirty := resetMarks(&b.rowDirty, len(b.be))
	colDirty := resetMarks(&b.colDirty, len(b.lc))
	for i, be := range b.be {
		m, ok := b.models[be.Name]
		if !ok {
			return res, fmt.Errorf("cluster: no fitted model for %s", be.Name)
		}
		if m == b.beModel[i] {
			continue
		}
		if id := internFP(utility.ModelKey(m)); id != b.rowID[i] {
			b.rowID[i] = id
			rowDirty[i] = true
		}
		b.beModel[i] = m
	}
	for j, lc := range b.lc {
		if b.down[j] {
			if b.colID[j] != downColID {
				b.colID[j] = downColID
				colDirty[j] = true
			}
			continue
		}
		m, ok := b.models[lc.Name]
		if !ok {
			return res, fmt.Errorf("cluster: no fitted model for %s", lc.Name)
		}
		// A column coming back up still holds downColID, which no
		// fingerprint interns to, so it always re-enters as dirty.
		if b.colID[j] != downColID && m == b.lcModel[j] && lc.PeakLoad == b.colPeak[j] && lc.ProvisionedPowerW == b.colCap[j] {
			continue
		}
		if id := internFP(colFP(lc, m)); id != b.colID[j] {
			b.colID[j] = id
			colDirty[j] = true
		}
		b.lcModel[j] = m
		b.colPeak[j] = lc.PeakLoad
		b.colCap[j] = lc.ProvisionedPowerW
	}
	// Cells are attributed to the fingerprint that dirtied them: a dirty
	// row claims its whole row, a dirty column claims only its cells in
	// clean rows. The split is what lets the pod layer repair its solver
	// with one SetRow/SetCol per dirty line instead of a full re-solve.
	refs := b.refs[:0]
	for i := range b.be {
		if rowDirty[i] {
			for j := range b.lc {
				refs = append(refs, cellRef{i, j})
			}
		}
	}
	nRowRefs := len(refs)
	for j := range b.lc {
		if !colDirty[j] {
			continue
		}
		for i := range b.be {
			if !rowDirty[i] {
				refs = append(refs, cellRef{i, j})
			}
		}
	}
	b.refs = refs
	if len(refs) == 0 {
		return res, nil
	}
	old := slices.Grow(b.old[:0], len(refs))[:len(refs)]
	b.old = old
	for k, r := range refs {
		old[k] = b.mx.Value[r.i][r.j]
	}
	stats, err := b.computeCells(refs)
	if err != nil {
		return res, err
	}
	res.Stats = stats
	rowChanged := resetMarks(&b.rowChanged, len(b.be))
	colChanged := resetMarks(&b.colChanged, len(b.lc))
	for k, r := range refs {
		if b.mx.Value[r.i][r.j] == old[k] {
			continue
		}
		if k < nRowRefs {
			rowChanged[r.i] = true
		} else {
			colChanged[r.j] = true
		}
	}
	b.changedRows = appendMarked(b.changedRows[:0], rowChanged)
	b.changedCols = appendMarked(b.changedCols[:0], colChanged)
	if len(b.changedRows) > 0 {
		res.ChangedRows = b.changedRows
	}
	if len(b.changedCols) > 0 {
		res.ChangedCols = b.changedCols
	}
	return res, nil
}

// resetMarks resizes *marks to n cleared marks, keeping its array.
func resetMarks(marks *[]bool, n int) []bool {
	m := slices.Grow((*marks)[:0], n)[:n]
	clear(m)
	*marks = m
	return m
}

// appendMarked appends the indices of the set marks, in index order.
func appendMarked(dst []int, marks []bool) []int {
	for i, m := range marks {
		if m {
			dst = append(dst, i)
		}
	}
	return dst
}

// AddRow appends a BE job to the matrix, computing its row through the
// memo, and returns the new row index.
func (b *MatrixBuilder) AddRow(be *workload.Spec) (int, error) {
	m, ok := b.models[be.Name]
	if !ok {
		return 0, fmt.Errorf("cluster: no fitted model for %s", be.Name)
	}
	i := len(b.be)
	b.be = append(b.be, be)
	b.beModel = append(b.beModel, m)
	b.rowID = append(b.rowID, internFP(utility.ModelKey(m)))
	b.mx.BENames = append(b.mx.BENames, be.Name)
	b.mx.Value = append(b.mx.Value, make([]float64, len(b.lc)))
	refs := make([]cellRef, len(b.lc))
	for j := range b.lc {
		refs[j] = cellRef{i, j}
	}
	if _, err := b.computeCells(refs); err != nil {
		// Roll the append back so the builder stays consistent.
		b.be = b.be[:i]
		b.beModel = b.beModel[:i]
		b.rowID = b.rowID[:i]
		b.mx.BENames = b.mx.BENames[:i]
		b.mx.Value = b.mx.Value[:i]
		return 0, err
	}
	return i, nil
}

// RemoveRow deletes a BE row by swapping the last row into index i —
// the same semantics as assign.Incremental.RemoveRow, so a pod applying
// both keeps its builder and solver index-aligned.
func (b *MatrixBuilder) RemoveRow(i int) error {
	if i < 0 || i >= len(b.be) {
		return fmt.Errorf("cluster: row %d outside %d rows", i, len(b.be))
	}
	last := len(b.be) - 1
	b.be[i] = b.be[last]
	b.beModel[i] = b.beModel[last]
	b.rowID[i] = b.rowID[last]
	b.mx.BENames[i] = b.mx.BENames[last]
	b.mx.Value[i] = b.mx.Value[last]
	b.be = b.be[:last]
	b.beModel = b.beModel[:last]
	b.rowID = b.rowID[:last]
	b.mx.BENames = b.mx.BENames[:last]
	b.mx.Value = b.mx.Value[:last]
	return nil
}

// RowSpec returns the BE spec backing row i.
func (b *MatrixBuilder) RowSpec(i int) *workload.Spec { return b.be[i] }

// computeCells fills the given cells, evaluating each distinct
// (global, row, col) fingerprint at most once: distinct keys are
// resolved against the memo sequentially (so the computed/reused split
// is deterministic), misses fan through the worker pool, and every
// duplicate cell is filled from its representative's value —
// bit-identical, since cells are pure functions of the fingerprinted
// inputs. Cells of down columns take downCell and count as neither
// computed nor reused.
func (b *MatrixBuilder) computeCells(refs []cellRef) (DeltaStats, error) {
	// group is one distinct key: its first cell (the representative the
	// pool computes) and the value every cell with that key receives.
	type group struct {
		key cellKey
		rep cellRef
		val float64
	}
	var groups []group
	groupOf := make([]int32, len(refs)) // ref → index into groups; -1 = down
	byKey := make(map[cellKey]int32, len(refs))
	down := 0
	for n, r := range refs {
		if b.colID[r.j] == downColID {
			groupOf[n] = -1
			down++
			continue
		}
		k := cellKey{global: b.globalID, row: b.rowID[r.i], col: b.colID[r.j]}
		g, ok := byKey[k]
		if !ok {
			g = int32(len(groups))
			byKey[k] = g
			groups = append(groups, group{key: k, rep: r})
		}
		groupOf[n] = g
	}
	// Groups sit in first-appearance order, so the memo sees the same
	// lookup sequence — and yields the same computed/reused split — as a
	// scan over the cells would. Only the misses fan out.
	var toCompute []int32
	for g := range groups {
		if v, ok := cells.Lookup(groups[g].key); ok {
			groups[g].val = v
		} else {
			toCompute = append(toCompute, int32(g))
		}
	}
	err := parallel.ForEach(len(toCompute), b.workers, func(idx int) error {
		g := &groups[toCompute[idx]]
		r := g.rep
		v, _, err := cells.Get(g.key, func() (float64, error) {
			return estimatePairThroughput(b.machine, b.lc[r.j], b.lcModel[r.j], b.beModel[r.i], b.loads)
		})
		if err != nil {
			return fmt.Errorf("cluster: estimating %s on %s: %w", b.be[r.i].Name, b.lc[r.j].Name, err)
		}
		g.val = v
		return nil
	})
	if err != nil {
		return DeltaStats{}, err
	}
	for n, r := range refs {
		if g := groupOf[n]; g >= 0 {
			b.mx.Value[r.i][r.j] = groups[g].val
		} else {
			b.mx.Value[r.i][r.j] = downCell
		}
	}
	st := DeltaStats{CellsComputed: len(toCompute), CellsReused: len(refs) - len(toCompute) - down}
	b.stats.add(st)
	return st, nil
}
