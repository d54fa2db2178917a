// Package trend implements the application layer the paper positions its
// system under (Section 2): enBlogue-style emergent-topic detection
// [Alvanaki et al., EDBT 2012], where the magnitude of a trend is the
// prediction error of a tagset's correlation. The Tracker's accepted
// Jaccard reports are the input; a Stream maintains a smoothed expectation
// per tagset and scores each new report by its deviation.
package trend

import "repro/internal/tagset"

// Event is one scored deviation: a tagset whose observed correlation moved
// away from its prediction.
type Event struct {
	Tags      tagset.Set
	Period    int64
	Predicted float64
	Observed  float64
	Score     float64 // |observed - predicted|, the prediction error
	Rising    bool    // observed > predicted
	CN        int64
}
