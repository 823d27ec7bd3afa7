package engine

import "errors"

// Sentinel errors of the engine's public contract. The tvq facade
// re-exports them; wrap sites add context with fmt.Errorf("...: %w", ...)
// so callers test with errors.Is rather than string matching.
var (
	// ErrDuplicateQuery reports a query id already registered with the
	// engine, pool or session.
	ErrDuplicateQuery = errors.New("duplicate query id")

	// ErrPruningIncompatible reports an operation that cannot run while
	// the §5.3 result-driven pruning strategy is enabled. Pruning drops
	// states as soon as no registered query can be satisfied by a
	// superset of their object set; a query registered later might have
	// been satisfiable by an already-dropped state, so dynamic
	// registration is rejected rather than silently under-reporting.
	ErrPruningIncompatible = errors.New("incompatible with result-driven pruning (§5.3)")

	// ErrSnapshotMismatch reports a snapshot that is internally valid but
	// disagrees with the caller's restore options or expectations —
	// wrong state kind, method, registry, worker count or shard mode.
	ErrSnapshotMismatch = errors.New("snapshot mismatch")
)
