package core

import (
	"fmt"
	"strings"

	"textjoin/internal/costmodel"
	"textjoin/internal/telemetry"
)

// PlanSamples replays the integrated planner's plan-phase trace events
// of a telemetry snapshot into cost-model calibration samples. Every
// JoinIntegrated call leaves "estimate.<alg>.seq" events for all three
// algorithms followed by one "measured.<alg>.cost" event for the
// algorithm it ran; each measured event pairs with the latest preceding
// estimate of the same algorithm to form one estimated-vs-measured
// sample. Estimates without a later measurement (the algorithms the
// planner rejected) produce no sample — their cost was never observed.
//
// Labels are "plan-<n>" in measurement order, unique within one
// snapshot; callers auditing a whole grid prefix them per cell. Events
// from a ring that overwrote its estimates (trace_dropped > 0 on a busy
// collector) simply skip the orphaned measurements.
func PlanSamples(s *telemetry.Snapshot) []costmodel.Sample {
	if s == nil {
		return nil
	}
	latestEst := make(map[string]float64)
	var out []costmodel.Sample
	for _, e := range s.Trace {
		if e.Kind != telemetry.KindEvent || e.Phase != telemetry.PhasePlan {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name, "estimate.") && strings.HasSuffix(e.Name, ".seq"):
			alg := strings.TrimSuffix(strings.TrimPrefix(e.Name, "estimate."), ".seq")
			latestEst[alg] = float64(e.Value)
		case strings.HasPrefix(e.Name, "measured.") && strings.HasSuffix(e.Name, ".cost"):
			alg := strings.TrimSuffix(strings.TrimPrefix(e.Name, "measured."), ".cost")
			est, ok := latestEst[alg]
			if !ok {
				continue
			}
			a, err := ParseAlgorithm(alg)
			if err != nil {
				continue
			}
			out = append(out, costmodel.Sample{
				Label:     fmt.Sprintf("plan-%d", len(out)),
				Algorithm: modelAlgs[a],
				Estimated: est,
				Measured:  float64(e.Value),
			})
		}
	}
	return out
}

// modelAlgs maps each core algorithm id to its costmodel counterpart.
var modelAlgs = [...]costmodel.Algorithm{HHNL: costmodel.AlgHHNL, HVNL: costmodel.AlgHVNL, VVM: costmodel.AlgVVM, LSH: costmodel.AlgLSH}
