// Package sim defines the virtual-time cost model used by the simulated
// multicomputer. All performance results in this repository are expressed in
// virtual seconds computed from this model, which makes them deterministic
// and independent of the host machine and the Go scheduler.
//
// The model is the classic alpha/beta (latency/bandwidth) model for
// communication plus a flop rate for computation:
//
//	message time  = Alpha + bytes*Beta
//	compute time  = flops / FlopRate
//	barrier time  = BarrierAlpha * ceil(log2 P)   (dissemination barrier)
//
// The Paragon preset approximates a mid-1990s Intel Paragon node: a few
// effective MFLOP/s, ~100 microsecond message latency, tens of MB/s
// bandwidth. Absolute agreement with the paper's 1996 testbed is not a goal;
// preserving cost *ratios* (and therefore mapping decisions, crossovers and
// speedup shapes) is.
package sim

import "fmt"

// CostModel holds the machine parameters for virtual-time accounting.
// The zero value is not useful; use a preset or fill every field.
type CostModel struct {
	// FlopRate is sustained floating point operations per second per node.
	FlopRate float64
	// Alpha is the fixed per-message latency in seconds.
	Alpha float64
	// Beta is the per-byte transfer time in seconds (1/bandwidth).
	Beta float64
	// SendOverhead is the CPU time the sender spends injecting a message.
	// It is charged to the sender's clock; Alpha+bytes*Beta is charged to
	// the wire (i.e. to the receiver's completion time).
	SendOverhead float64
	// MemByte is per-byte local copy cost (packing/unpacking).
	MemByte float64
	// BarrierAlpha is the per-round cost of a dissemination barrier.
	BarrierAlpha float64
	// IORate is bytes per second for the (single) I/O subsystem, used by
	// applications with explicit input/output phases (e.g. Airshed).
	IORate float64
	// PerHop is the additional wire latency per network hop on
	// topology-aware machines (machine.NewMesh). Zero models a flat
	// network; the Paragon preset keeps it zero because its per-hop cost
	// (~40 ns) is negligible against Alpha.
	PerHop float64
}

// Paragon returns a cost model loosely calibrated to a 64-node Intel
// Paragon of the mid 1990s.
func Paragon() CostModel {
	return CostModel{
		FlopRate:     10e6,      // 10 MFLOP/s effective
		Alpha:        120e-6,    // 120 us message latency
		Beta:         1 / 30e6,  // 30 MB/s
		SendOverhead: 40e-6,     // 40 us CPU injection cost
		MemByte:      1 / 200e6, // 200 MB/s local copy
		BarrierAlpha: 80e-6,     // per dissemination round
		IORate:       5e6,       // 5 MB/s I/O subsystem
	}
}

// Workstation returns a model of a modern cluster node; used in tests to
// check that mapping decisions respond to the cost model.
func Workstation() CostModel {
	return CostModel{
		FlopRate:     1e9,
		Alpha:        5e-6,
		Beta:         1 / 1e9,
		SendOverhead: 1e-6,
		MemByte:      1 / 4e9,
		BarrierAlpha: 3e-6,
		IORate:       100e6,
	}
}

// FlopTime returns the virtual seconds to execute n floating point
// operations on one node.
func (c CostModel) FlopTime(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return n / c.FlopRate
}

// WireTime returns the virtual seconds a message of the given size spends
// between send injection and availability at the receiver.
func (c CostModel) WireTime(bytes int) float64 {
	return c.Alpha + float64(bytes)*c.Beta
}

// IOTime returns the virtual seconds to read or write bytes through the
// machine's I/O subsystem.
func (c CostModel) IOTime(bytes int) float64 {
	if c.IORate <= 0 {
		return 0
	}
	return float64(bytes) / c.IORate
}

// Validate reports an error if the model has non-positive core rates.
func (c CostModel) Validate() error {
	if c.FlopRate <= 0 {
		return fmt.Errorf("sim: FlopRate must be positive, got %g", c.FlopRate)
	}
	if c.Alpha < 0 || c.Beta < 0 || c.SendOverhead < 0 || c.MemByte < 0 || c.BarrierAlpha < 0 || c.PerHop < 0 {
		return fmt.Errorf("sim: negative cost parameter in %+v", c)
	}
	return nil
}
