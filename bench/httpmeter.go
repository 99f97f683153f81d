package main

import (
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/isasgd/isasgd/internal/httpx"
)

// httpMeter is the traced pass's view of a server from outside: an
// http.Handler wrapper owned by bench that times every request and counts
// the bytes each way, per route.
type httpMeter struct {
	tr     *tracer
	parent int

	mu     sync.Mutex
	routes map[string]*routeStats
}

type routeStats struct {
	secs      []float64
	reqBytes  int64
	respBytes int64
}

func newHTTPMeter(tr *tracer, parent int) *httpMeter {
	return &httpMeter{tr: tr, parent: parent, routes: make(map[string]*routeStats)}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrap meters h. route maps a request to the name it is accounted under;
// "" leaves the request unmetered.
func (m *httpMeter) wrap(h http.Handler, route func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(r)
		if name == "" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		sp := m.tr.begin(name, m.parent, 0)
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0).Seconds()
		m.tr.end(sp)
		m.mu.Lock()
		rs := m.routes[name]
		if rs == nil {
			rs = &routeStats{}
			m.routes[name] = rs
		}
		rs.secs = append(rs.secs, d)
		rs.reqBytes += max(r.ContentLength, 0)
		rs.respBytes += cw.n
		m.mu.Unlock()
	})
}

// stats returns a route's request count, median handler seconds and mean
// bytes per request each way.
func (m *httpMeter) stats(name string) (n int, medianS, reqBytes, respBytes float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routes[name]
	if rs == nil || len(rs.secs) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]float64(nil), rs.secs...)
	sort.Float64s(s)
	n = len(s)
	return n, percentile(s, 0.5), float64(rs.reqBytes) / float64(n), float64(rs.respBytes) / float64(n)
}

// reset forgets what was metered so far (set-up and warm-up traffic).
func (m *httpMeter) reset() {
	m.mu.Lock()
	m.routes = make(map[string]*routeStats)
	m.mu.Unlock()
}

// server is a loopback listener whose close returns once Serve has.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// listen serves h on a loopback port with the project's hardened server
// settings.
func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: httpx.NewServer(h, httpx.Timeouts{}), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after close
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close() //nolint:errcheck // drops connections; nothing to report
	<-s.done
}
