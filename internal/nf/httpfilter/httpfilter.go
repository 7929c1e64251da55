// Package httpfilter implements GNF's HTTP filter NF — the second of the
// paper's demo functions. It inspects outbound TCP segments that look like
// HTTP requests and drops (optionally TCP-RSTs) requests whose host, path
// or header block matches the configured blocklist, notifying the Manager
// of each block.
package httpfilter

import (
	"strconv"
	"strings"
	"sync"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Filter is the NF instance.
type Filter struct {
	name      string
	port      uint16 // 0 = inspect every TCP port
	hosts     []string
	paths     []string
	keywords  []string
	sendReset bool

	mu                         sync.Mutex
	parser                     packet.Parser
	notify                     nf.NotifyFunc
	inspected, blocked, passed uint64
}

// Option configures a Filter.
type Option func(*Filter)

// WithBlockedHosts blocks requests whose Host equals or is a subdomain of
// any entry.
func WithBlockedHosts(hosts ...string) Option {
	return func(f *Filter) {
		for _, h := range hosts {
			h = strings.ToLower(strings.TrimSpace(h))
			if h != "" {
				f.hosts = append(f.hosts, h)
			}
		}
	}
}

// WithBlockedPaths blocks requests whose target starts with any entry.
func WithBlockedPaths(paths ...string) Option {
	return func(f *Filter) {
		for _, p := range paths {
			if p = strings.TrimSpace(p); p != "" {
				f.paths = append(f.paths, p)
			}
		}
	}
}

// WithBlockedKeywords blocks requests whose head contains any entry.
func WithBlockedKeywords(kws ...string) Option {
	return func(f *Filter) {
		for _, k := range kws {
			if k = strings.TrimSpace(k); k != "" {
				f.keywords = append(f.keywords, strings.ToLower(k))
			}
		}
	}
}

// WithPort restricts inspection to one TCP destination port (default 80;
// 0 inspects all).
func WithPort(port uint16) Option { return func(f *Filter) { f.port = port } }

// WithReset makes the filter answer blocked requests with a TCP RST toward
// the client instead of silently dropping.
func WithReset(on bool) Option { return func(f *Filter) { f.sendReset = on } }

// New creates an HTTP filter.
func New(name string, opts ...Option) *Filter {
	f := &Filter{name: name, port: 80}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Name implements nf.Function.
func (f *Filter) Name() string { return f.name }

// Kind implements nf.Function.
func (f *Filter) Kind() string { return "httpfilter" }

// SetNotifier implements nf.NotifierSetter.
func (f *Filter) SetNotifier(fn nf.NotifyFunc) {
	f.mu.Lock()
	f.notify = fn
	f.mu.Unlock()
}

// Process implements nf.Function.
func (f *Filter) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(f, dir, frame)
}

// ProcessBatch implements nf.Function: one lock acquisition covers
// the batch; blocked frames are recycled, RSTs join the reverse batch. Only
// outbound client->server requests are inspected, and a same-flow run is
// UDP, never HTTP: its first frame is parsed to find that out, the rest pass
// unparsed.
func (f *Filter) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	if dir != nf.Outbound {
		out.Forward = append(out.Forward, frames...)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var run packet.Run
	for _, frame := range frames {
		if !run.Continues(frame) {
			err := f.parser.Parse(frame)
			if err == nil && f.parser.Has(packet.LayerTCP) {
				pass, reply := f.verdictLocked()
				if reply != nil {
					out.Reverse = append(out.Reverse, reply)
				}
				if !pass {
					packet.ReturnFrame(frame)
					continue
				}
			} else if err == nil {
				run.Start(frame)
			}
		}
		out.Forward = append(out.Forward, frame)
	}
}

// verdictLocked inspects the TCP segment f.parser holds, with f.mu held:
// pass reports whether the frame continues forward; a non-nil reply is the
// RST answered toward the client for a blocked request.
func (f *Filter) verdictLocked() (pass bool, reply []byte) {
	if f.port != 0 && f.parser.TCP.DstPort != f.port {
		return true, nil
	}
	payload := f.parser.TCP.Payload()
	if !packet.LooksLikeHTTPRequest(payload) {
		return true, nil
	}
	f.inspected++
	req, err := packet.ParseHTTPRequest(payload)
	if err != nil {
		return true, nil // partial head: let it through
	}
	reason := f.blockReason(req, payload)
	if reason == "" {
		f.passed++
		return true, nil
	}
	f.blocked++
	if f.notify != nil {
		f.notify(nf.Notification{
			Severity: nf.SevWarning,
			NF:       f.name,
			Kind:     "httpfilter",
			Message:  "blocked " + req.Method + " " + req.Host + req.Target + " (" + reason + ")",
		})
	}
	if f.sendReset {
		return false, f.buildRST()
	}
	return false, nil
}

func (f *Filter) blockReason(req *packet.HTTPRequest, payload []byte) string {
	for _, h := range f.hosts {
		if req.Host == h || strings.HasSuffix(req.Host, "."+h) {
			return "host " + h
		}
	}
	for _, p := range f.paths {
		if strings.HasPrefix(req.Target, p) {
			return "path " + p
		}
	}
	if len(f.keywords) > 0 {
		lower := strings.ToLower(string(payload))
		for _, k := range f.keywords {
			if strings.Contains(lower, k) {
				return "keyword " + k
			}
		}
	}
	return ""
}

// buildRST answers the parsed segment with a reset toward the client.
// Called with f.mu held and f.parser freshly parsed.
func (f *Filter) buildRST() []byte {
	p := &f.parser
	seq := p.TCP.Ack // valid for an established flow; good enough inline
	return packet.BuildTCP(
		p.Eth.Dst, p.Eth.Src,
		p.IP.Dst, p.IP.Src,
		p.TCP.DstPort, p.TCP.SrcPort,
		packet.TCPOptions{Seq: seq, Ack: p.TCP.Seq + uint32(len(p.TCP.Payload())), Flags: packet.TCPRst | packet.TCPAck},
		nil)
}

// NFStats implements nf.StatsReporter.
func (f *Filter) NFStats() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]uint64{
		"inspected": f.inspected,
		"blocked":   f.blocked,
		"passed":    f.passed,
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func init() {
	nf.Default.RegisterKind("httpfilter", nf.KindInfo{Shareable: true}, func(name string, params nf.Params) (nf.Function, error) {
		opts := []Option{
			WithBlockedHosts(splitList(params.Get("block_hosts", ""))...),
			WithBlockedPaths(splitList(params.Get("block_paths", ""))...),
			WithBlockedKeywords(splitList(params.Get("block_keywords", ""))...),
		}
		if ps := params.Get("port", ""); ps != "" {
			n, err := strconv.ParseUint(ps, 10, 16)
			if err != nil {
				return nil, err
			}
			opts = append(opts, WithPort(uint16(n)))
		}
		if params.Get("rst", "false") == "true" {
			opts = append(opts, WithReset(true))
		}
		return New(name, opts...), nil
	})
}
