package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rating"
)

// oracleSampleRaters is how many raters' trust the check compares, on
// top of every rater flagged malicious.
const oracleSampleRaters = 200

func g17(v float64) string { return fmt.Sprintf("%.17g", v) }

// checkOracle replays every acknowledged rating batch and window, in
// acknowledgement order, into an in-process core.System and requires the service's aggregates,
// malicious list and a sample of raters' trust to match it exactly.
func (r *run) checkOracle() error {
	sys, err := core.NewSystem(workloadSettings(r.name).coreConfig())
	if err != nil {
		return err
	}
	for _, ev := range r.events {
		if ev.win != nil {
			if _, err := sys.ProcessWindow(ev.win.Start, ev.win.End); err != nil {
				return err
			}
		} else if err := sys.SubmitAll(ev.ratings); err != nil {
			return err
		}
	}
	c := newClient(r.svc.url(), 1)
	defer c.close()

	seen := map[rating.ObjectID]bool{}
	var objects []rating.ObjectID
	for _, ev := range r.events {
		for _, rt := range ev.ratings {
			if !seen[rt.Object] {
				seen[rt.Object] = true
				objects = append(objects, rt.Object)
			}
		}
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i] < objects[j] })
	for _, obj := range objects {
		want, err := sys.Aggregate(obj)
		if err != nil {
			return fmt.Errorf("oracle aggregate of object %d: %w", obj, err)
		}
		got, err := c.aggregate(int(obj))
		if err != nil {
			return err
		}
		if g17(got.Value) != g17(want.Value) || got.Used != want.Used || got.Filtered != want.Filtered || got.FellBack != want.FellBack {
			return fmt.Errorf("object %d aggregate: service %+v, oracle value %s used %d filtered %d fellBack %v",
				obj, got, g17(want.Value), want.Used, want.Filtered, want.FellBack)
		}
	}

	gotMal, err := c.malicious()
	if err != nil {
		return err
	}
	wantMal := sys.MaliciousRaters()
	if len(gotMal) != len(wantMal) {
		return fmt.Errorf("malicious: service lists %d raters, oracle %d", len(gotMal), len(wantMal))
	}
	for i := range gotMal {
		if gotMal[i] != int(wantMal[i]) {
			return fmt.Errorf("malicious[%d]: service %d, oracle %d", i, gotMal[i], wantMal[i])
		}
	}

	snap := sys.TrustSnapshot()
	ids := make([]rating.RaterID, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sample := append([]rating.RaterID(nil), wantMal...)
	if len(ids) > 0 {
		step := max(1, len(ids)/oracleSampleRaters)
		for i := 0; i < len(ids); i += step {
			sample = append(sample, ids[i])
		}
	}
	for _, id := range sample {
		got, err := c.trust(int(id))
		if err != nil {
			return err
		}
		if g17(got) != g17(sys.TrustIn(id)) {
			return fmt.Errorf("rater %d trust: service %s, oracle %s", id, g17(got), g17(sys.TrustIn(id)))
		}
	}
	return nil
}
