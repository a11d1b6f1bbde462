package obs

// AnalysisMetrics is the standard instrument set for the DCA analysis
// stack, registered on one registry and fed by trace events: it is a Sink,
// so the same event stream that produces JSONL traces produces /metrics
// samples, and the two can never disagree about what happened.
//
// Cardinality policy: label values are trap kinds (4), verdict names (8),
// and cache outcomes (2) — all closed sets. Loop identity stays in the
// trace stream.
type AnalysisMetrics struct {
	// ReplaySeconds observes the latency of every sandboxed execution:
	// the reference run, each golden run, and each schedule replay.
	ReplaySeconds *Histogram
	// Replays counts those executions.
	Replays *Counter
	// Traps counts abnormal terminations by sandbox trap kind.
	Traps *CounterVec
	// Retries counts doubled-budget retries spent.
	Retries *Counter
	// Verdicts counts finished loops by verdict name.
	Verdicts *CounterVec
	// CacheHits / CacheMisses count verdict-cache lookups as the analysis
	// saw them (the cache's own tiered counters live beside these).
	CacheHits   *Counter
	CacheMisses *Counter
	// CacheWriteErrors counts verdict-cache stores that failed on disk.
	CacheWriteErrors *Counter
	// ProvedLoops counts loops the static commutativity prover decided
	// (skipping their dynamic stage); ProveMisses counts prover attempts
	// that fell through to the dynamic stage.
	ProvedLoops *Counter
	ProveMisses *Counter
}

// NewAnalysisMetrics registers the analysis instrument set on r.
func NewAnalysisMetrics(r *Registry) *AnalysisMetrics {
	return &AnalysisMetrics{
		ReplaySeconds: r.Histogram("dca_replay_seconds",
			"Latency of sandboxed executions (reference, golden, and schedule replays).", nil),
		Replays: r.Counter("dca_replays_total",
			"Sandboxed executions performed (reference, golden, and schedule replays)."),
		Traps: r.CounterVec("dca_traps_total",
			"Abnormal execution terminations by sandbox trap kind.", "kind"),
		Retries: r.Counter("dca_replay_retries_total",
			"Doubled-budget retries spent on budget- or timeout-trapped executions."),
		Verdicts: r.CounterVec("dca_loops_total",
			"Loops finished, by final verdict.", "verdict"),
		CacheHits: r.Counter("dca_verdict_cache_hits_total",
			"Verdict-cache lookups that served a stored dynamic-stage outcome."),
		CacheMisses: r.Counter("dca_verdict_cache_misses_total",
			"Verdict-cache lookups that fell through to the dynamic stage."),
		CacheWriteErrors: r.Counter("dca_verdict_cache_write_errors_total",
			"Verdict-cache stores that failed to reach the disk tier."),
		ProvedLoops: r.Counter("dca_proved_loops_total",
			"Loops decided by the static commutativity prover (dynamic stage skipped)."),
		ProveMisses: r.Counter("dca_prove_misses_total",
			"Static-prover attempts that fell through to the dynamic stage."),
	}
}

// Emit folds one trace event into the instruments. Safe for concurrent
// use: every update is atomic.
func (m *AnalysisMetrics) Emit(ev Event) {
	switch ev.Stage {
	case StageReference, StageGolden, StageReplay:
		m.Replays.Inc()
		m.ReplaySeconds.Observe(ev.DurationMS / 1000)
		if ev.Trap != "" {
			m.Traps.Inc(ev.Trap)
		}
		if ev.Retries > 0 {
			m.Retries.Add(uint64(ev.Retries))
		}
	case StageCache:
		switch ev.Outcome {
		case OutcomeHit:
			m.CacheHits.Inc()
		case OutcomeMiss:
			m.CacheMisses.Inc()
		case OutcomeError:
			m.CacheWriteErrors.Inc()
		}
	case StageProve:
		switch ev.Outcome {
		case OutcomeProved:
			m.ProvedLoops.Inc()
		case OutcomeMiss:
			m.ProveMisses.Inc()
		}
	case StageVerdict:
		m.Verdicts.Inc(ev.Verdict)
	}
}
