package obs

// ExecReport is the executor report Cluster.ExecProfile returns. Every
// cluster runs on one engine, which has no windows to profile, so the report
// is always nil; the type remains for callers that read it.
//
// Deprecated: there is no multi-LP executor to profile.
type ExecReport struct {
	// ExecEfficiency was the useful-work fraction of the workers' time.
	ExecEfficiency float64 `json:"exec_efficiency"`
	// StallPct was the percentage of worker time spent at barriers.
	StallPct float64 `json:"stall_pct"`
}
