package frame

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

// Header describes the version a version frame carries. A 200 answer of
// a feed endpoint is one version frame (Content-Type ContentType), and
// errors are JSON {"error": "..."}:
//
//	seq        uvarint  the version's sequence number
//	epoch      uvarint
//	iters      uvarint
//	published  uvarint  the version's publish instant, Unix nanoseconds
//	live       1 byte   the publisher is still training the model
//	done       1 byte   the publisher's run is over
//	loss       8 bytes  float64, finite: the last evaluated data loss
//	algo       string
//	objective  string
//	dataset    string
//	width      1 byte   F64 or F32, the width of DType
//	count      uvarint  0 when the poller is current, else the model's Dim
//	values     count × width bytes
//
// Serve stamps seq, epoch, iters and published from the version, and the
// publisher's callback supplies the rest: the cluster sets done, loss
// (-1 before its first evaluation) and the width its worker asked for;
// serve sets live, the names and its store's width. A field a publisher
// has no use for stays zero.
type Header struct {
	Seq       uint64
	Epoch     int
	Iters     int64
	Published int64
	Live      bool
	Done      bool
	Loss      float64
	Algo      string
	Objective string
	Dataset   string
	DType     string // precision name of the values' width (WidthOf)
}

// maxHead bounds a version frame's bytes before its values: five
// uvarints (the header's four and the count), the live, done and width
// bytes, the loss, and three strings of at most MaxString bytes behind a
// 2-byte length.
const maxHead = 5*binary.MaxVarintLen64 + 3 + 8 + 3*(2+MaxString)

// AppendVersion appends the frame of h and the values w to dst. w is
// nil when the poller is current, else the whole vector.
func AppendVersion(dst []byte, h *Header, w []float64) []byte {
	dst = binary.AppendUvarint(dst, h.Seq)
	dst = binary.AppendUvarint(dst, uint64(h.Epoch))
	dst = binary.AppendUvarint(dst, uint64(h.Iters))
	dst = binary.AppendUvarint(dst, uint64(max(h.Published, 0)))
	dst = appendBool(dst, h.Live)
	dst = appendBool(dst, h.Done)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Loss))
	dst = appendString(dst, h.Algo)
	dst = appendString(dst, h.Objective)
	dst = appendString(dst, h.Dataset)
	width := WidthOf(h.DType)
	dst = append(dst, byte(width))
	dst = binary.AppendUvarint(dst, uint64(len(w)))
	return AppendValues(dst, w, width)
}

// DecodeVersion decodes a version frame of a model of dim coordinates.
// The count must be 0 or dim, or any count when dim < 0 (a reader that
// does not know the model, such as a checkpoint's), and the bytes left
// must hold it before anything is allocated. The values decode into dst,
// which is replaced by a new slice only if it is shorter than the count;
// the returned values alias it, and are nil when the count is 0.
func DecodeVersion(b []byte, dim int, dst []float64) (Header, []float64, error) {
	r := NewReader(b)
	h := Header{
		Seq:       r.Uvarint("seq", math.MaxUint64),
		Epoch:     int(r.Uvarint("epoch", math.MaxInt)),
		Iters:     int64(r.Uvarint("iters", math.MaxInt64)),
		Published: int64(r.Uvarint("published", math.MaxInt64)),
		Live:      r.flag("live"),
		Done:      r.flag("done"),
		Loss:      r.float("loss"),
		Algo:      r.str("algo"),
		Objective: r.str("objective"),
		Dataset:   r.str("dataset"),
	}
	width := r.Width()
	h.DType = NameOf(width)
	var w []float64
	switch n := r.Uvarint("count", uint64(dim)); {
	case r.err != nil || n == 0:
	case dim >= 0 && n != uint64(dim):
		r.Fail("count %d is neither 0 nor the model's %d", n, dim)
	case n > uint64(len(r.b)/width):
		r.Fail("count %d exceeds what %d bytes can hold", n, len(r.b))
	default:
		if cap(dst) < int(n) {
			dst = make([]float64, n)
		}
		w = dst[:n]
	}
	r.Values(w, width)
	if r.err != nil {
		return Header{}, nil, r.err
	}
	return h, w, nil
}

// errorBody is the JSON body of a feed answer other than 200.
type errorBody struct {
	Error string `json:"error"`
}

// Serve answers one long-poll GET on the feed of store: it waits until
// store holds a version newer than the request's since parameter, the
// poll window passes, or stop closes (nil never does), then answers the
// newest version as one frame, with its values only if it is newer than
// since. head supplies the publisher's fields, called once the version
// is chosen; Serve stamps the version's seq, epoch, iters and published.
// A since that is not a uint64 is a JSON 400.
func Serve(w http.ResponseWriter, r *http.Request, store *snapshot.Store, window time.Duration,
	stop <-chan struct{}, head func() Header) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		var err error
		if since, err = strconv.ParseUint(s, 10, 64); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(errorBody{Error: "bad since: " + err.Error()})
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), window)
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	v := store.Wait(ctx, since)
	if v == nil {
		v = store.Load() // window passed or stop closed: describe the current version
	}
	h := head()
	h.Seq, h.Epoch, h.Iters, h.Published = v.Seq, v.Epoch, v.Iters, v.At.UnixNano()
	var vals []float64
	if v.Seq > since {
		vals = v.Weights
	}
	b := AppendVersion(make([]byte, 0, maxHead+WidthOf(h.DType)*len(vals)), &h, vals)
	w.Header().Set("Content-Type", ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// Answer is the outcome of one Pull.
type Answer struct {
	Header
	Weights []float64 // the version's values, decoded as DecodeVersion does; nil when the poller is current
	Next    uint64    // the cursor for the next poll
}

// StatusError is a feed answer other than 200: its status and the
// message of its JSON error body.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return fmt.Sprintf("answered %d: %s", e.Status, e.Msg) }

// ErrorOf reads resp, an answer other than 200, as a *StatusError: the
// message of its JSON error body, or the status text without one.
func ErrorOf(resp *http.Response) *StatusError {
	var eb errorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&eb)
	if eb.Error == "" {
		eb.Error = http.StatusText(resp.StatusCode)
	}
	return &StatusError{Status: resp.StatusCode, Msg: eb.Error}
}

// Pull is one client step of a feed: one GET of url, whose query Pull
// extends with since, for a model of dim coordinates. A status other
// than 200 is a *StatusError, and a 200 that is not a frame an error
// naming its Content-Type. The body is read no further than the longest
// frame of dim values, then decoded into dst as DecodeVersion does.
//
// The cursor rule sets Answer.Next. An answer with values moves the
// cursor to its seq, which must be newer than since: an honest feed
// never sends anything else, so anything else is an error. An answer
// without values leaves the cursor at since, unless its seq is below
// since: the feed restarted behind the poller (a store re-seeded
// without its checkpoint), so the cursor rewinds to 0 and the next poll
// fetches the feed's current version.
func Pull(ctx context.Context, hc *http.Client, url string, since uint64, dim int, dst []float64) (Answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"&since="+strconv.FormatUint(since, 10), nil)
	if err != nil {
		return Answer{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Answer{}, ErrorOf(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		// A peer that predates the frame answers JSON: say so rather
		// than report its text as a broken frame.
		return Answer{}, fmt.Errorf("frame: answered 200 with Content-Type %q, not a %s version frame (an older peer?)",
			ct, ContentType)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, int64(maxHead)+int64(F64)*int64(dim)+1))
	if err != nil {
		return Answer{}, err
	}
	h, vals, err := DecodeVersion(b, dim, dst)
	if err != nil {
		return Answer{}, err
	}
	a := Answer{Header: h, Weights: vals, Next: since}
	switch {
	case vals != nil && h.Seq <= since:
		return Answer{}, fmt.Errorf("frame: values at seq %d, not newer than the cursor %d", h.Seq, since)
	case vals != nil:
		a.Next = h.Seq
	case h.Seq < since:
		a.Next = 0
	}
	return a, nil
}

// Backoff is the sleep before retry number attempt (1-based):
// min(cap, base·2^(attempt-1)), jittered uniformly over its upper half so
// pollers that failed together retry apart.
func Backoff(base, cap time.Duration, attempt int, rng *xrand.Rand) time.Duration {
	d := base << uint(attempt-1)
	if d <= 0 || d > cap {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}
