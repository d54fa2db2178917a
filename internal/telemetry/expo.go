package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// ContentType is the Prometheus text exposition content type served by
// Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every registered family in Prometheus text exposition
// format 0.0.4: families sorted by name, each with # HELP and # TYPE
// lines, members sorted by rendered label set. Histograms emit cumulative
// le buckets, +Inf, _sum (seconds) and _count, with _count equal to the
// +Inf bucket even under concurrent recording.
//
// A scrape is the BeforeScrape function followed by every callback read,
// and scrapes are serialised, so callbacks may read what that function
// gathered. The body is rendered to memory and written afterwards: a slow
// client never holds up the next scrape.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	before := r.beforeScrape
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := new(bytes.Buffer)
	r.scrapeMu.Lock()
	if before != nil {
		before()
	}
	for _, f := range fams {
		// Members append at registration time only; reading len+index
		// without the registry lock is safe because wiring completes
		// before the first scrape.
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		writeEscapedHelp(bw, f.help)
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')

		members := append([]*member(nil), f.members...)
		sort.Slice(members, func(i, j int) bool { return members[i].labels < members[j].labels })
		for _, m := range members {
			switch f.kind {
			case counterKind:
				v := m.counterFn
				var n int64
				if v != nil {
					n = v()
				} else {
					n = m.counter.Value()
				}
				writeSimple(bw, f.name, m.labels, strconv.FormatInt(n, 10))
			case gaugeKind:
				writeSimple(bw, f.name, m.labels, formatFloat(m.gaugeFn()))
			case histogramKind:
				writeHistogram(bw, f.name, m.labels, m.hist)
			}
		}
	}
	r.scrapeMu.Unlock()
	_, err := w.Write(bw.Bytes())
	return err
}

// Handler returns an http.Handler serving the exposition at GET.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WriteText(w)
	})
}

func writeSimple(bw *bytes.Buffer, name, labels, value string) {
	bw.WriteString(name)
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// writeHistogram emits the bucket/sum/count series for one histogram.
// Empty buckets are skipped (except +Inf) to keep the scrape compact; the
// cumulative value at any published le is still correct, so parsers and
// quantile estimates are unaffected.
func writeHistogram(bw *bytes.Buffer, name, labels string, h *Histogram) {
	cum, total := h.cumulative()
	sumNS := h.SumNS()
	var prev int64
	for i, c := range cum {
		if c == prev && i != len(cum)-1 {
			continue
		}
		prev = c
		writeBucket(bw, name, labels, leStrings[i], c)
	}
	writeBucket(bw, name, labels, "+Inf", total)
	bw.WriteString(name)
	bw.WriteString("_sum")
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(float64(sumNS) / 1e9))
	bw.WriteByte('\n')
	bw.WriteString(name)
	bw.WriteString("_count")
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(total, 10))
	bw.WriteByte('\n')
}

func writeBucket(bw *bytes.Buffer, name, labels, le string, v int64) {
	bw.WriteString(name)
	bw.WriteString("_bucket{")
	if labels != "" {
		bw.WriteString(labels)
		bw.WriteByte(',')
	}
	bw.WriteString(`le="`)
	bw.WriteString(le)
	bw.WriteString(`"} `)
	bw.WriteString(strconv.FormatInt(v, 10))
	bw.WriteByte('\n')
}

// writeEscapedHelp escapes a HELP string: backslash and newline (quotes
// are legal in help text).
func writeEscapedHelp(bw *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			bw.WriteString(`\\`)
		case '\n':
			bw.WriteString(`\n`)
		default:
			bw.WriteByte(s[i])
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
