package bench

import (
	"context"
	"fmt"
	"time"

	"graphsql/internal/storage"
	"graphsql/internal/types"
)

// DynamicIndex runs the E7 ablation: an update-heavy workload (insert
// a small batch of friendship edges, then answer point shortest-path
// queries) under three policies for the §6 graph index:
//
//	adhoc      — no index: every query rebuilds the graph (the
//	             paper's measured prototype behaviour);
//	rebuild    — index rebuilt eagerly after every insert batch (the
//	             naive reading of §6);
//	delta      — this repo's updatable index: appended edges absorbed
//	             into a delta, snapshot rebuilt only when the delta
//	             outgrows it.
func DynamicIndex(o Options) error {
	o.Defaults()
	sf := o.SFs[0]
	fmt.Fprintf(o.Out, "E7 updatable graph index: %d rounds of (insert batch + %d queries), SF %d shrink=%d\n",
		dynRounds, o.Pairs, sf, o.Shrink)
	fmt.Fprintf(o.Out, "%-10s %16s\n", "policy", "total time (s)")
	for _, policy := range []string{"adhoc", "rebuild", "delta"} {
		d, err := RunDynamicPolicy(policy, sf, o.Shrink, o.Pairs, o.Seed)
		if err != nil {
			return fmt.Errorf("%s: %w", policy, err)
		}
		fmt.Fprintf(o.Out, "%-10s %16.6f\n", policy, d.Seconds())
	}
	return nil
}

const dynRounds = 8

// RunDynamicPolicy measures one policy over the insert+query workload.
func RunDynamicPolicy(policy string, sf, shrink, pairs int, seed uint64) (time.Duration, error) {
	e, ds, err := Setup(sf, shrink, seed)
	if err != nil {
		return 0, err
	}
	if policy != "adhoc" {
		if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
			return 0, err
		}
	}
	friends, _ := e.Catalog().Table("friends")
	src, dst := ds.RandomPairs(dynRounds*pairs+dynRounds*4, seed^0xD1)
	next := 0
	take := func() (int64, int64) {
		s, d := src[next], dst[next]
		next++
		return s, d
	}

	start := time.Now()
	for round := 0; round < dynRounds; round++ {
		// Insert a batch of 4 new directed friendship edges (bulk
		// append, like the loader, so the measurement is dominated by
		// index maintenance and queries, not INSERT parsing).
		for k := 0; k < 4; k++ {
			s, d := take()
			appendFriend(friends, s, d)
		}
		if policy == "rebuild" {
			e.DropGraphIndexes("friends")
			if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
				return 0, err
			}
		}
		for q := 0; q < pairs; q++ {
			s, d := take()
			if _, err := e.QueryCtx(context.Background(), Q13, types.NewInt(s), types.NewInt(d)); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// appendFriend bulk-appends one directed edge row.
func appendFriend(friends *storage.Table, s, d int64) {
	friends.Cols[0].AppendInt(s)
	friends.Cols[1].AppendInt(d)
	friends.Cols[2].AppendInt(15000)
	friends.Cols[3].AppendFloat(1.0)
	friends.Cols[4].AppendInt(1)
}

// VerifyDynamicAgainstAdhoc cross-checks the three policies give
// identical answers on a shared workload; used by tests.
func VerifyDynamicAgainstAdhoc(sf, shrink, pairs int, seed uint64) error {
	type result struct{ dists []int64 }
	results := map[string]result{}
	for _, policy := range []string{"adhoc", "rebuild", "delta"} {
		e, ds, err := Setup(sf, shrink, seed)
		if err != nil {
			return err
		}
		if policy != "adhoc" {
			if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
				return err
			}
		}
		friends, _ := e.Catalog().Table("friends")
		src, dst := ds.RandomPairs(pairs*2, seed^0xD1)
		var dists []int64
		for i := 0; i < pairs; i++ {
			appendFriend(friends, src[i], dst[i])
			appendFriend(friends, dst[i], src[i])
			if policy == "rebuild" {
				e.DropGraphIndexes("friends")
				if err := e.BuildGraphIndex("friends", "src", "dst"); err != nil {
					return err
				}
			}
			s, d := src[pairs+i], dst[pairs+i]
			res, err := e.QueryCtx(context.Background(), Q13, types.NewInt(s), types.NewInt(d))
			if err != nil {
				return err
			}
			if res.NumRows() == 0 {
				dists = append(dists, -1)
			} else {
				dists = append(dists, res.Cols[0].Ints[0])
			}
		}
		results[policy] = result{dists}
	}
	base := results["adhoc"].dists
	for _, policy := range []string{"rebuild", "delta"} {
		for i, d := range results[policy].dists {
			if d != base[i] {
				return fmt.Errorf("policy %s query %d: dist %d != adhoc %d", policy, i, d, base[i])
			}
		}
	}
	return nil
}
