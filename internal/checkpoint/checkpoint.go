// Package checkpoint persists one weight version, so long runs can be
// resumed and served models outlive their process. A checkpoint file is
// the version frame of internal/frame between a magic and a checksum:
//
//	magic  4 bytes  "ISCK"
//	frame  frame.AppendVersion of the State's names, counters, width
//	       and weights
//	crc    4 bytes  little-endian CRC-32C (Castagnoli) of magic and frame
//
// A checkpoint is outside input, so it gets the frame's fail-closed
// rules: Load checks the magic and the checksum, and the frame's count
// must fit the bytes that hold it before anything is allocated. Files
// of the earlier formats (a gob stream, or the cluster coordinator's
// JSON state file) are refused with an error that names their format;
// they are not converted. Writes go through a temp file + rename so a
// crash never leaves a truncated checkpoint behind.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/isasgd/isasgd/internal/frame"
	"github.com/isasgd/isasgd/internal/model"
)

// magic opens every checkpoint file.
const magic = "ISCK"

// castagnoli is the CRC-32C table of the trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFormat is returned when the bytes are not a checkpoint file.
var ErrBadFormat = errors.New("checkpoint: bad format")

// State is one weight version and what a restore reads of it.
type State struct {
	Algo      string // core.Algo string form
	Objective string // objective name, for a sanity check on resume
	Dataset   string // dataset name, informational
	Seq       uint64 // the version's sequence number (0 where the writer keeps none)
	Epoch     int    // completed epochs
	Iters     int64  // cumulative updates
	DType     string // model.PrecisionF32 stores 4-byte values, anything else 8
	Weights   []float64
}

// Validate checks that st can be written and read back bitwise. Non-finite
// weights are rejected on both save and load: a diverged model is not
// worth persisting, and a checkpoint carrying NaN/Inf must fail loudly
// here rather than surface downstream as an unservable model.
func (s *State) Validate() error {
	if len(s.Weights) == 0 {
		return errors.New("checkpoint: no weights")
	}
	if s.Epoch < 0 || s.Iters < 0 {
		return fmt.Errorf("checkpoint: negative counters (epoch %d, iters %d)", s.Epoch, s.Iters)
	}
	if j := model.FirstNonFinite(s.Weights); j >= 0 {
		return fmt.Errorf("checkpoint: non-finite weight %g at coordinate %d", s.Weights[j], j)
	}
	for _, name := range []string{s.Algo, s.Objective, s.Dataset} {
		if len(name) > frame.MaxString {
			return fmt.Errorf("checkpoint: name of %d bytes exceeds %d", len(name), frame.MaxString)
		}
	}
	if frame.WidthOf(s.DType) == frame.F32 {
		for j, v := range s.Weights {
			if float64(float32(v)) != v {
				return fmt.Errorf("checkpoint: weight %g at coordinate %d is not a float32 value", v, j)
			}
		}
	}
	return nil
}

// Save writes st to w.
func Save(w io.Writer, st *State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	b := frame.AppendVersion([]byte(magic), &frame.Header{
		Seq: st.Seq, Epoch: st.Epoch, Iters: st.Iters,
		Algo: st.Algo, Objective: st.Objective, Dataset: st.Dataset, DType: st.DType,
	}, st.Weights)
	_, err := w.Write(binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)))
	return err
}

// Load reads a State from r, which must hold one checkpoint file and
// nothing after it.
func Load(r io.Reader) (*State, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(b, []byte(magic)) {
		return nil, fmt.Errorf("%w: %s", ErrBadFormat, unknown(b))
	}
	if len(b) < len(magic)+4 {
		return nil, fmt.Errorf("%w: truncated at %d bytes", ErrBadFormat, len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("%w: CRC-32C mismatch", ErrBadFormat)
	}
	h, w, err := frame.DecodeVersion(body[len(magic):], -1, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	st := &State{
		Algo: h.Algo, Objective: h.Objective, Dataset: h.Dataset,
		Seq: h.Seq, Epoch: h.Epoch, Iters: h.Iters, DType: h.DType, Weights: w,
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// unknown describes bytes that do not open with the magic, naming the
// format when an earlier version wrote them.
func unknown(b []byte) string {
	switch {
	case bytes.Contains(b[:min(len(b), 64)], []byte("ISASGD-CKPT")):
		return "a gob checkpoint, the format before version frames; it is not read or converted"
	case len(b) > 0 && b[0] == '{':
		return "a JSON state file, the cluster coordinator's format before version frames; it is not read or converted"
	}
	return "no checkpoint magic"
}

// SaveFile atomically writes st to path (temp file + rename).
func SaveFile(path string, st *State) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, st); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Ext is the conventional checkpoint file extension used by ListDir and
// the serving subsystem's checkpoint directory.
const Ext = ".ckpt"

// ListDir returns the paths of the checkpoint files (*.ckpt) directly
// inside dir, sorted by name. A missing directory yields an empty list,
// not an error, so callers can treat "no checkpoint dir yet" as "nothing
// to resume".
func ListDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != Ext {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	return paths, nil
}

// LoadFile reads a State from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
