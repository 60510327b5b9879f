package core

import (
	"fmt"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/stats"
	"cloudwatch/internal/wire"
)

// ProtocolSlice selects the records of one comparison axis (§3.3: the
// paper focuses on Telnet, SSH, HTTP/80, and HTTP across all ports).
type ProtocolSlice int

// Comparison slices.
const (
	SliceSSH22 ProtocolSlice = iota
	SliceSSH2222
	SliceTelnet23
	SliceTelnet2323
	SliceHTTP80
	SliceHTTPAll // HTTP payloads independent of port ("HTTP/All Ports")
	SliceAnyAll  // everything ("Any/All")
)

// String names the slice as the paper's tables do.
func (p ProtocolSlice) String() string {
	switch p {
	case SliceSSH22:
		return "SSH/22"
	case SliceSSH2222:
		return "SSH/2222"
	case SliceTelnet23:
		return "TEL/23"
	case SliceTelnet2323:
		return "TEL/2323"
	case SliceHTTP80:
		return "HTTP/80"
	case SliceHTTPAll:
		return "HTTP/All"
	case SliceAnyAll:
		return "Any/All"
	default:
		return fmt.Sprintf("Slice(%d)", int(p))
	}
}

// matches reports whether a record belongs to the slice.
func (p ProtocolSlice) matches(rec netsim.Record) bool {
	switch p {
	case SliceSSH22:
		return rec.Port == 22
	case SliceSSH2222:
		return rec.Port == 2222
	case SliceTelnet23:
		return rec.Port == 23
	case SliceTelnet2323:
		return rec.Port == 2323
	case SliceHTTP80:
		return rec.Port == 80
	case SliceHTTPAll:
		if len(rec.Payload) > 0 {
			return fingerprint.Identify(rec.Payload) == fingerprint.HTTP
		}
		// Credential-only records are never HTTP.
		return false
	case SliceAnyAll:
		return true
	default:
		return false
	}
}

// View aggregates the traffic characteristics of one vantage point (or
// a merged group) for one protocol slice: exactly the axes of §3.3 —
// who (ASes), what (usernames, passwords, payloads), why (fraction
// malicious) — plus the per-hour volume series used by the leak
// experiment.
type View struct {
	Slice     ProtocolSlice
	AS        stats.Freq // traffic per scanning AS
	Usernames stats.Freq
	Passwords stats.Freq
	Payloads  stats.Freq // normalized payload keys
	Malicious float64    // malicious record count
	Benign    float64    // non-malicious record count
	Total     float64    // all records in slice
	Srcs      map[wire.Addr]struct{}
	MalSrcs   map[wire.Addr]struct{}
	Hourly    []float64 // length netsim.StudyHours
	MalHourly []float64
}

// NewView returns an empty view for a slice.
func NewView(slice ProtocolSlice) *View {
	return &View{
		Slice:     slice,
		AS:        stats.Freq{},
		Usernames: stats.Freq{},
		Passwords: stats.Freq{},
		Payloads:  stats.Freq{},
		Srcs:      map[wire.Addr]struct{}{},
		MalSrcs:   map[wire.Addr]struct{}{},
		Hourly:    make([]float64, netsim.StudyHours),
		MalHourly: make([]float64, netsim.StudyHours),
	}
}

// Add folds one record into the view (no-op when the record is outside
// the slice). malicious is the §3.2 verdict of the record.
func (v *View) Add(rec netsim.Record, malicious bool) {
	if !v.Slice.matches(rec) {
		return
	}
	v.Total++
	if as, ok := netsim.LookupAS(rec.ASN); ok {
		v.AS.Add(as.Key(), 1)
	} else {
		v.AS.Add(fmt.Sprintf("AS%d", rec.ASN), 1)
	}
	for _, c := range rec.Creds {
		v.Usernames.Add(c.Username, 1)
		v.Passwords.Add(c.Password, 1)
	}
	if len(rec.Payload) > 0 {
		v.Payloads.Add(payloadKey(rec.Payload), 1)
	}
	hour := netsim.HourOf(rec.T)
	v.Hourly[hour]++
	v.Srcs[rec.Src] = struct{}{}
	if malicious {
		v.Malicious++
		v.MalHourly[hour]++
		v.MalSrcs[rec.Src] = struct{}{}
	} else {
		v.Benign++
	}
}

// FractionMalicious returns the §3.2 malicious share of the slice.
func (v *View) FractionMalicious() float64 {
	if v.Total == 0 {
		return 0
	}
	return v.Malicious / v.Total
}

// payloadKey normalizes a payload for comparison, dropping the
// ephemeral header values the paper strips (Date, Host,
// Content-Length) and truncating for table readability.
func payloadKey(p []byte) string {
	const maxKey = 48
	norm := normalizePayload(p)
	if len(norm) > maxKey {
		norm = norm[:maxKey]
	}
	return fmt.Sprintf("%q", norm)
}

// normalizePayload removes Date/Host/Content-Length header lines from
// HTTP-looking payloads (§3.3: "directly compare the full payload
// after removing ephemeral values").
func normalizePayload(p []byte) []byte {
	if fingerprint.Identify(p) != fingerprint.HTTP {
		return p
	}
	// The output can only shrink: preallocate to the payload size so
	// the loop never regrows the buffer.
	out := make([]byte, 0, len(p))
	start := 0
	for start < len(p) {
		end := start
		for end < len(p) && p[end] != '\n' {
			end++
		}
		line := p[start:end]
		if !ephemeralHeader(line) {
			out = append(out, line...)
			if end < len(p) {
				out = append(out, '\n')
			}
		}
		start = end + 1
	}
	return out
}

// ephemeralHeader reports whether a header line carries one of the
// ephemeral values the paper strips. Single pass: dispatch on the
// first byte, then one prefix comparison — no per-call slice literal.
func ephemeralHeader(line []byte) bool {
	if len(line) == 0 {
		return false
	}
	var prefix string
	switch line[0] {
	case 'D':
		prefix = "Date:"
	case 'H':
		prefix = "Host:"
	case 'C':
		prefix = "Content-Length:"
	default:
		return false
	}
	return len(line) >= len(prefix) && string(line[:len(prefix)]) == prefix
}

// VantageView returns the view of a single vantage point, built from
// the derived-record index and memoized per (vantage, slice): repeat
// requests — every experiment that shares an axis — return the same
// *View. Callers must treat the result as read-only.
func (s *Study) VantageView(id string, slice ProtocolSlice) *View {
	return s.views.get(kindVantage, id, slice, func() *View {
		return s.buildVantageView(id, slice)
	})
}

// buildVantageView computes a vantage view from the record columns,
// bypassing the cache.
func (s *Study) buildVantageView(id string, slice ProtocolSlice) *View {
	v := NewView(slice)
	for _, ri := range s.vantageIdxs(id) {
		s.addToView(v, int(ri))
	}
	return v
}

// vantageViews builds one view per target, fanning the builds out
// across cores. The result preserves target order, so downstream
// group merges are deterministic.
func (s *Study) vantageViews(targets []*netsim.Target, slice ProtocolSlice) []*View {
	views := make([]*View, len(targets))
	ParallelEach(len(targets), func(i int) {
		views[i] = s.VantageView(targets[i].ID, slice)
	})
	return views
}

// GroupView merges the views of several vantage points using the §4.4
// median filter: for every characteristic value, the group count is
// the median of the per-honeypot counts (zeros included), damping
// single-IP attacker latches when comparing groups.
func GroupView(views []*View) *View {
	if len(views) == 0 {
		return NewView(SliceAnyAll)
	}
	out := NewView(views[0].Slice)
	out.AS = medianMerge(viewTables(views, func(v *View) stats.Freq { return v.AS }))
	out.Usernames = medianMerge(viewTables(views, func(v *View) stats.Freq { return v.Usernames }))
	out.Passwords = medianMerge(viewTables(views, func(v *View) stats.Freq { return v.Passwords }))
	out.Payloads = medianMerge(viewTables(views, func(v *View) stats.Freq { return v.Payloads }))
	var mal, tot []float64
	for _, v := range views {
		mal = append(mal, v.Malicious)
		tot = append(tot, v.Total)
		for src := range v.Srcs {
			out.Srcs[src] = struct{}{}
		}
		for src := range v.MalSrcs {
			out.MalSrcs[src] = struct{}{}
		}
		for h := range v.Hourly {
			out.Hourly[h] += v.Hourly[h]
			out.MalHourly[h] += v.MalHourly[h]
		}
	}
	out.Malicious = stats.Median(mal)
	out.Total = stats.Median(tot)
	out.Benign = out.Total - out.Malicious
	return out
}

func viewTables(views []*View, get func(*View) stats.Freq) []stats.Freq {
	out := make([]stats.Freq, len(views))
	for i, v := range views {
		out[i] = get(v)
	}
	return out
}

// medianMerge computes the per-key median count across tables,
// counting absent keys as zero, then drops zero-median keys. One
// scratch buffer is reused across keys, so the merge allocates no
// per-key slices.
func medianMerge(tables []stats.Freq) stats.Freq {
	keys := map[string]struct{}{}
	for _, t := range tables {
		for k := range t {
			keys[k] = struct{}{}
		}
	}
	out := stats.Freq{}
	scratch := make([]float64, len(tables))
	for k := range keys {
		for i, t := range tables {
			scratch[i] = t[k]
		}
		if m := stats.MedianInPlace(scratch); m > 0 {
			out[k] = m
		}
	}
	return out
}
