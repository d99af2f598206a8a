// Package budget holds the division arithmetic of the cluster-level power
// budget — the hierarchical power management layer of systems like
// Facebook's Dynamo, which the paper builds alongside (Section VI cites it
// as the datacenter-wide power telemetry/capping substrate). Pocolo's
// servers each enforce a per-server cap; when the datacenter's budget is
// tighter than the sum of provisioned capacities, the budget/tree
// package's Divider periodically re-divides it among the servers — a
// flat cluster budget being a one-level tree — and its adapters install
// the shares as caps.
//
// Two division policies are provided: an equal split, and a
// demand-proportional split that follows each server's smoothed power draw
// — servers whose primaries are at peak get more of the budget than
// servers coasting at 10% load, which is exactly when their co-runners can
// use it.
package budget

import "fmt"

// Policy selects how a budget is divided.
type Policy int

const (
	// EqualSplit gives every server an equal share of its node's budget
	// (unit weights per server), clamped to provisioned capacity with the
	// remainder redistributed.
	EqualSplit Policy = iota
	// DemandProportional divides the budget in proportion to each server's
	// smoothed power draw (plus a request margin), clamped between the
	// idle floor and the server's provisioned capacity, with the remainder
	// redistributed.
	DemandProportional
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case EqualSplit:
		return "equal-split"
	case DemandProportional:
		return "demand-proportional"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}
