package main

import "time"

// trigger is one refit a stream owes: the arrival count that completes a
// refit batch, and when the packet carrying it was due to be sent.
type trigger struct {
	arrivals int64
	due      time.Time
}

// observation is one poll of a stream's published fit: when the answer
// came back, when the daemon published the fit it reports (the poll's
// midpoint less the fit's age), and the fit's arrival count.
type observation struct {
	at        time.Time
	published time.Time
	arrivals  int64
}

// outcome is a trigger's fate: observed with a latency, or never seen.
type outcome struct {
	trigger
	observed bool
	latency  time.Duration
}

// matchDecisions pairs each trigger with the first poll, at or after the
// trigger's due time, whose fit reports at least the trigger's arrival
// count. An exact match is the trigger's decision, timed from the due
// time to the fit's publication, so the poll's own round trip does not
// count. A poll already past the count means the decision was never
// published — the refit was skipped or rejected — so the trigger is
// unobserved, as it is when no later poll reaches it.
//
// Counts are receiver-side. With a packet lost on the way, the
// trigger's count is reached one packet later than scheduled, so its
// latency is measured from an earlier due time: lost packets can only
// lengthen a reported latency, never shorten it. observations must be in
// poll order.
func matchDecisions(triggers []trigger, obs []observation) []outcome {
	out := make([]outcome, 0, len(triggers))
	i := 0
	for _, tg := range triggers {
		for i < len(obs) && obs[i].at.Before(tg.due) {
			i++
		}
		o := outcome{trigger: tg}
		for j := i; j < len(obs); j++ {
			if obs[j].arrivals < tg.arrivals {
				continue
			}
			if obs[j].arrivals == tg.arrivals {
				o.observed = true
				o.latency = obs[j].published.Sub(tg.due)
			}
			break
		}
		out = append(out, o)
	}
	return out
}
