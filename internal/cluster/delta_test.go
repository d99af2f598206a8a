package cluster

import (
	"math"
	"reflect"
	"testing"

	"pocolo/internal/machine"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

func cloneSpec(s *workload.Spec) *workload.Spec {
	c := *s
	return &c
}

func cloneSpecs(ss []*workload.Spec) []*workload.Spec {
	out := make([]*workload.Spec, len(ss))
	for i, s := range ss {
		out[i] = cloneSpec(s)
	}
	return out
}

func matrixCopy(mx *Matrix) [][]float64 {
	out := make([][]float64, len(mx.Value))
	for i, row := range mx.Value {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func TestMatrixBuilderMatchesBuildMatrix(t *testing.T) {
	cfg := fixture(t)
	mcfg := MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models}

	// Ground truth from an empty memo: every distinct cell evaluated.
	ResetMemo()
	want, err := BuildMatrix(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemo()
	b, err := NewMatrixBuilder(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Matrix(), want) {
		t.Error("builder matrix differs from cold BuildMatrix")
	}
	// A second builder over the same inputs must be all memo hits.
	before := b.Stats()
	b2, err := NewMatrixBuilder(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Stats().CellsComputed != 0 {
		t.Errorf("second build computed %d cells, want 0", b2.Stats().CellsComputed)
	}
	if !reflect.DeepEqual(b2.Matrix(), want) {
		t.Error("memo-served matrix differs")
	}
	if before.CellsComputed == 0 {
		t.Error("first build computed no cells")
	}
}

func TestMatrixBuilderMemoCollapsesIdenticalHosts(t *testing.T) {
	cfg := fixture(t)
	// Four per-host instances of the same LC spec: one distinct column
	// fingerprint, so each BE row costs exactly one evaluation.
	lc := []*workload.Spec{
		cloneSpec(cfg.LC[0]), cloneSpec(cfg.LC[0]),
		cloneSpec(cfg.LC[0]), cloneSpec(cfg.LC[0]),
	}
	ResetMemo()
	b, err := NewMatrixBuilder(MatrixConfig{Machine: cfg.Machine, LC: lc, BE: cfg.BE[:2], Models: cfg.Models})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.CellsComputed != 2 {
		t.Errorf("CellsComputed = %d, want 2 (one per BE model)", st.CellsComputed)
	}
	if st.CellsReused != 6 {
		t.Errorf("CellsReused = %d, want 6", st.CellsReused)
	}
	for i := range b.Matrix().Value {
		for j := 1; j < 4; j++ {
			if b.Matrix().Value[i][j] != b.Matrix().Value[i][0] {
				t.Fatalf("identical hosts got different cells at row %d", i)
			}
		}
	}
}

func TestMatrixBuilderRefreshDelta(t *testing.T) {
	cfg := fixture(t)
	lc := cloneSpecs(cfg.LC) // private copies so cap mutations stay local
	mcfg := MatrixConfig{Machine: cfg.Machine, LC: lc, BE: cfg.BE, Models: cfg.Models}
	ResetMemo()
	b, err := NewMatrixBuilder(mcfg)
	if err != nil {
		t.Fatal(err)
	}

	// No input drift: zero work, zero changes.
	res, err := b.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != (DeltaStats{}) || res.ChangedRows != nil || res.ChangedCols != nil {
		t.Errorf("idle refresh did work: %+v", res)
	}

	// One host's cap changes: only that column is recomputed — the
	// asserted delta property. With 4 BE rows that is exactly 4
	// evaluations (all row models are distinct), and no other cell is
	// touched.
	old := matrixCopy(b.Matrix())
	lc[2].ProvisionedPowerW -= 30
	res, err = b.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.CellsComputed + res.Stats.CellsReused; got != len(cfg.BE) {
		t.Errorf("refresh touched %d cells, want %d (one column)", got, len(cfg.BE))
	}
	if !reflect.DeepEqual(res.ChangedCols, []int{2}) {
		t.Errorf("ChangedCols = %v, want [2]", res.ChangedCols)
	}
	if len(res.ChangedRows) != 0 {
		t.Errorf("ChangedRows = %v, want none", res.ChangedRows)
	}
	for i := range old {
		for j := range old[i] {
			same := b.Matrix().Value[i][j] == old[i][j]
			if j == 2 && same {
				t.Errorf("cell (%d, 2) unchanged by cap cut", i)
			}
			if j != 2 && !same {
				t.Errorf("cell (%d, %d) changed outside the dirty column", i, j)
			}
		}
	}
	// The refreshed matrix must equal a from-scratch build of the new
	// inputs.
	want, err := BuildMatrix(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Matrix().Value, want.Value) {
		t.Error("refreshed matrix differs from from-scratch build")
	}

	// Reverting the cap must be pure memo reuse: the old fingerprint's
	// cells are still cached under the original interned id.
	lc[2].ProvisionedPowerW += 30
	res, err = b.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CellsComputed != 0 {
		t.Errorf("revert computed %d cells, want 0 (memo round-trip)", res.Stats.CellsComputed)
	}

	// A model replacement dirties its row.
	models := make(map[string]*utility.Model, len(cfg.Models))
	for k, v := range cfg.Models {
		models[k] = v
	}
	nudged := *cfg.Models[cfg.BE[1].Name]
	nudged.Alpha0 *= 1.05
	models[cfg.BE[1].Name] = &nudged
	b.models = models
	res, err = b.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ChangedRows, []int{1}) {
		t.Errorf("ChangedRows = %v, want [1]", res.ChangedRows)
	}
	if len(res.ChangedCols) != 0 {
		t.Errorf("ChangedCols = %v, want none", res.ChangedCols)
	}
	if got := res.Stats.CellsComputed + res.Stats.CellsReused; got != len(lc) {
		t.Errorf("refresh touched %d cells, want %d (one row)", got, len(lc))
	}
}

func TestMatrixBuilderAddRemoveRow(t *testing.T) {
	cfg := fixture(t)
	ResetMemo()
	b, err := NewMatrixBuilder(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE[:2], Models: cfg.Models})
	if err != nil {
		t.Fatal(err)
	}
	i, err := b.AddRow(cfg.BE[2])
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 || b.Rows() != 3 {
		t.Fatalf("AddRow index %d rows %d", i, b.Rows())
	}
	want, err := BuildMatrix(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE[:3], Models: cfg.Models})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Matrix().Value, want.Value) {
		t.Error("matrix after AddRow differs from from-scratch build")
	}
	// Swap-remove row 0: old row 2 takes its place.
	movedName := b.Matrix().BENames[2]
	movedRow := append([]float64(nil), b.Matrix().Value[2]...)
	if err := b.RemoveRow(0); err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 2 || b.Matrix().BENames[0] != movedName {
		t.Fatalf("after RemoveRow: rows=%d names=%v", b.Rows(), b.Matrix().BENames)
	}
	if !reflect.DeepEqual(b.Matrix().Value[0], movedRow) {
		t.Error("swap-removed row values not preserved")
	}
	if err := b.RemoveRow(5); err == nil {
		t.Error("out-of-range RemoveRow accepted")
	}
}

func TestMatrixBuilderEmptyRows(t *testing.T) {
	cfg := fixture(t)
	b, err := NewMatrixBuilder(MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, Models: cfg.Models})
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 0 || b.Cols() != len(cfg.LC) {
		t.Fatalf("rows=%d cols=%d", b.Rows(), b.Cols())
	}
	if res, err := b.Refresh(); err != nil || res.Stats != (DeltaStats{}) {
		t.Fatalf("empty refresh: %+v, %v", res, err)
	}
	if _, err := b.AddRow(cfg.BE[0]); err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 1 {
		t.Fatalf("rows = %d after AddRow", b.Rows())
	}
}

func TestCellMemoControls(t *testing.T) {
	cfg := fixture(t)
	mcfg := MatrixConfig{Machine: cfg.Machine, LC: cfg.LC, BE: cfg.BE, Models: cfg.Models}
	ResetMemo()
	if _, err := NewMatrixBuilder(mcfg); err != nil {
		t.Fatal(err)
	}
	entries, _, misses := cells.Stats()
	if entries == 0 || misses == 0 {
		t.Fatalf("expected memo population, got entries=%d misses=%d", entries, misses)
	}
	if _, err := NewMatrixBuilder(mcfg); err != nil {
		t.Fatal(err)
	}
	if _, hits, _ := cells.Stats(); hits == 0 {
		t.Error("expected memo hits on rebuild")
	}
	ResetMemo()
	if entries, hits, misses := cells.Stats(); entries != 0 || hits != 0 || misses != 0 {
		t.Errorf("reset left entries=%d hits=%d misses=%d", entries, hits, misses)
	}
}

// TestGlobalFPCoversMachineConfig is globalFP's reflect guard: perturbing
// any one field of machine.Config, or a load, must change the
// fingerprint, so a field added to the platform cannot silently alias
// two platforms onto one cell memo entry.
func TestGlobalFPCoversMachineConfig(t *testing.T) {
	base := machine.XeonE52650()
	loads := DefaultLoadRange()
	want := globalFP(base, loads)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		default:
			t.Fatalf("machine.Config.%s has kind %s: extend globalFP and this guard", typ.Field(i).Name, f.Type())
		}
		if globalFP(cfg, loads) == want {
			t.Errorf("globalFP ignores machine.Config.%s", typ.Field(i).Name)
		}
	}
	moved := append([]float64(nil), loads...)
	moved[len(moved)-1] = math.Nextafter(moved[len(moved)-1], 0)
	if globalFP(base, moved) == want {
		t.Error("globalFP ignores the load range")
	}
}
