package core

import "cloudwatch/internal/obs"

// Package-level observability handles, resolved once. Counting happens
// at run granularity — one atomic add per generator pass, never per
// record — so the generation hot path pays nothing.
var (
	// mRecordsGenerated counts honeypot records produced by every
	// generator pass of this process (batch Run and GenerateEpochs).
	mRecordsGenerated = obs.Default().Counter("core_records_generated_total",
		"Honeypot records produced by generation (batch and epoch-partitioned).")
)
