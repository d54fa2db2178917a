package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// BenchmarkServe times the read routes in process against a drained
// service: the four snapshot routes as cache hits, /pairs as the uncached
// point lookup beside them, and topk100-cold with a refresh before every
// request — the price of a miss, snapshot included.
func BenchmarkServe(b *testing.B) {
	srv := drainedTrendService(b, 100)
	h := srv.Handler()

	var top TopKResponse
	if err := json.Unmarshal(serve(b, h, "/topk?k=100"), &top); err != nil {
		b.Fatal(err)
	}
	pair := ""
	for _, c := range top.Top {
		if len(c.Tags) == 2 {
			pair = "/pairs/" + url.PathEscape(c.Tags[0]) + "/" + url.PathEscape(c.Tags[1])
			break
		}
	}
	if pair == "" {
		b.Fatal("/topk lists no pair")
	}

	for _, rt := range []struct {
		name, path string
		cold       bool
	}{
		{name: "topk20", path: "/topk?k=20"},
		{name: "topk100", path: "/topk?k=100"},
		{name: "trends20", path: "/trends?k=20"},
		{name: "partition", path: "/partition"},
		{name: "stats", path: "/stats"},
		{name: "pair", path: pair},
		{name: "topk100-cold", path: "/topk?k=100", cold: true},
	} {
		b.Run(rt.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, rt.path, nil)
			rec := httptest.NewRecorder()
			b.ReportAllocs()
			for b.Loop() {
				if rt.cold {
					srv.RefreshNow()
				}
				rec.Body.Reset()
				h.ServeHTTP(rec, req)
			}
			if rec.Code != http.StatusOK {
				b.Fatalf("%s answered %d", rt.path, rec.Code)
			}
		})
	}
}
