package experiments

import (
	"reflect"
	"testing"
	"time"

	"pocolo/internal/cluster"
)

// TestExperimentsParallelMatchesSequential: whole figures regenerated
// through the worker pool must equal their sequential regeneration, with
// the cluster memo reset before each side so every simulation actually
// runs in both modes.
func TestExperimentsParallelMatchesSequential(t *testing.T) {
	defer cluster.ResetMemo()

	run := func(par int) (Fig14Result, Fig12Result) {
		t.Helper()
		s, err := NewSuite(42)
		if err != nil {
			t.Fatal(err)
		}
		s.Dwell = 2 * time.Second
		s.Parallel = par
		cluster.ResetMemo()
		fig14, err := s.Fig14()
		if err != nil {
			t.Fatal(err)
		}
		fig12, err := s.Fig12()
		if err != nil {
			t.Fatal(err)
		}
		return fig14, fig12
	}
	seqFig14, seqFig12 := run(1)
	parFig14, parFig12 := run(4)
	if !reflect.DeepEqual(seqFig14, parFig14) {
		t.Errorf("Fig14 diverges:\nsequential %+v\nparallel   %+v", seqFig14, parFig14)
	}
	if !reflect.DeepEqual(seqFig12, parFig12) {
		t.Errorf("Fig12 diverges:\nsequential %+v\nparallel   %+v", seqFig12, parFig12)
	}
}
