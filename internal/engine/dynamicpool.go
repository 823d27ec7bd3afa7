package engine

import (
	"fmt"
	"slices"

	"tvq/internal/cnf"
)

// Pool-level dynamic query registration. Like Pool.Snapshot and
// Pool.StateCount, these methods read and mutate the shards' engines,
// so they must be called only between ProcessBatch calls: the
// dispatcher's done.Wait() on the previous batch and the job send of
// the next one provide the happens-before edges that make the mutation
// safe without locks.

// AddQuery registers a query on every engine of a running pool.
//
// In ShardByFeed mode the query reaches the engine of every feed seen
// so far — each at that feed's current frame, exactly as a dedicated
// per-feed engine would — and feeds that first appear later start with
// it from their frame 0. In ShardByGroup mode the query joins the shard
// already serving its window size, or, for a new window size, the shard
// with the fewest queries; in the new-window case the relative order of
// different queries' matches within one frame is unspecified and may
// differ from a single engine's, though each query's own match stream
// is identical.
//
// Like Engine.AddQuery this is rejected under the §5.3 result-driven
// pruning strategy (error wraps ErrPruningIncompatible; states other
// queries let the pool drop might have satisfied the newcomer) and for
// an already-registered id (error wraps ErrDuplicateQuery).
func (p *Pool) AddQuery(q cnf.Query) error {
	if p.opts.Engine.Prune {
		return fmt.Errorf("engine: pool AddQuery: %w", ErrPruningIncompatible)
	}
	if err := q.Validate(); err != nil {
		return err
	}
	for _, existing := range p.queries {
		if existing.ID == q.ID {
			return fmt.Errorf("engine: query id %d: %w", q.ID, ErrDuplicateQuery)
		}
	}
	switch p.opts.Mode {
	case ShardByGroup:
		if err := p.workers[p.shardForWindow(q.Window)].eng.AddQuery(q); err != nil {
			return err
		}
	default: // ShardByFeed
		// Validate once against the extended set so the per-engine loop
		// below cannot fail halfway and leave feeds disagreeing.
		next := append(slices.Clone(p.queries), q)
		if _, err := New(next, p.opts.Engine); err != nil {
			return err
		}
		for _, w := range p.workers {
			for feed, eng := range w.feeds {
				if err := eng.AddQuery(q); err != nil {
					return fmt.Errorf("engine: feed %d: %w", feed, err)
				}
			}
		}
	}
	p.setQueries(append(p.queries, q))
	return nil
}

// RemoveQuery deregisters a query from every engine of the pool; it
// reports whether the query was present. Removal is always sound,
// including under §5.3 pruning.
func (p *Pool) RemoveQuery(id int) (bool, error) {
	found := false
	for _, existing := range p.queries {
		if existing.ID == id {
			found = true
			break
		}
	}
	if !found {
		return false, nil
	}
	for _, w := range p.workers {
		if w.eng != nil {
			if _, err := w.eng.RemoveQuery(id); err != nil {
				return false, err
			}
		}
		for _, eng := range w.feeds {
			if _, err := eng.RemoveQuery(id); err != nil {
				return false, err
			}
		}
	}
	rest := make([]cnf.Query, 0, len(p.queries)-1)
	for _, existing := range p.queries {
		if existing.ID != id {
			rest = append(rest, existing)
		}
	}
	p.setQueries(rest)
	return true, nil
}

// setQueries updates the pool's query set and the worker-shared copy
// that lazy per-feed engine construction reads.
func (p *Pool) setQueries(qs []cnf.Query) {
	p.queries = qs
	p.shared.queries = qs
}

// shardForWindow picks the ShardByGroup shard for a window size: the
// shard already maintaining a group of that window (its state history is
// exactly what a joining query shares), else the least-loaded shard.
func (p *Pool) shardForWindow(window int) int {
	for i, w := range p.workers {
		for _, g := range w.eng.groups {
			if g.window == window {
				return i
			}
		}
	}
	best, min := 0, -1
	for i, w := range p.workers {
		if n := len(w.eng.Queries()); min < 0 || n < min {
			best, min = i, n
		}
	}
	return best
}
