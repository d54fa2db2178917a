package kit

import (
	"bytes"
	"net/http"

	"repro/internal/core"
)

// FlightSample is the flight recorder's sampling rate in every benchmark
// pipeline: one document in 256.
const FlightSample = 256

// ServiceConfig is the pipeline configuration every workload and the layer
// replay run: the service settings internal/load uses (copied, not
// imported, so earlier sizing stays comparable). The caller adds the
// archive directory and the flight recorder.
func ServiceConfig() core.Config {
	cfg := core.DefaultConfig() // K=10, P=10, DS, thr 0.5
	cfg.MaxTags = 10
	cfg.KeepPeriods = 8
	cfg.NoSeries = true
	cfg.TrackerTasks = 4
	cfg.NotifyBatch = 64
	cfg.EvictedPairs = 4096
	cfg.Trend = true
	cfg.TrendThreshold = 0.1
	cfg.TrendTopK = 50
	cfg.ReportEvery = ReportEvery
	cfg.WindowSpan = ReportEvery
	cfg.CheckpointEvery = 2
	return cfg
}

// memWriter is a minimal in-memory http.ResponseWriter, reused from
// request to request.
type memWriter struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.hdr }
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }
func (m *memWriter) WriteHeader(code int)        { m.code = code }

// Client calls a serving handler in process: the benchmark measures the
// service, not the loopback stack. One goroutine per Client.
type Client struct {
	h http.Handler
	w memWriter
}

// NewClient returns a client of h.
func NewClient(h http.Handler) *Client {
	return &Client{h: h, w: memWriter{hdr: make(http.Header)}}
}

// Get serves one GET and returns the status (0 for an unusable path) and
// the body, which is valid until the next call.
func (c *Client) Get(path string) (int, []byte) {
	req, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	if err != nil {
		return 0, nil
	}
	c.w.code = http.StatusOK
	c.w.body.Reset()
	clear(c.w.hdr)
	c.h.ServeHTTP(&c.w, req)
	return c.w.code, c.w.body.Bytes()
}
