package sparse

// Float32 feature storage. The f32 kernels read weights AND features at
// half width, so a CSR can materialize a float32 copy of its values
// once — features are converted a single time at ingestion, and every
// subsequent epoch streams 4-byte instead of 8-byte feature loads. The
// int32 index arrays are shared unchanged between both precisions.

// EnsureVal32 materializes the float32 copy of the value array if it is
// not already present, and returns it. The copy is built once and
// cached on the matrix; call it during setup (it is not safe to race
// with itself). It is indexed like Val, so IndPtr slices rows out of
// both.
func (m *CSR) EnsureVal32() []float32 {
	if m.val32 == nil {
		v32 := make([]float32, len(m.Val))
		for i, v := range m.Val {
			v32[i] = float32(v)
		}
		m.val32 = v32
	}
	return m.val32
}

// Val32 returns the cached float32 copy of Val, nil until EnsureVal32
// or SetVal32 has made one.
func (m *CSR) Val32() []float32 { return m.val32 }

// SetVal32 installs v as the cached float32 copy EnsureVal32 returns,
// for a caller that converts the values in a pass of its own; v must
// hold float32(Val[k]) at every k. Like EnsureVal32, it belongs to
// setup.
func (m *CSR) SetVal32(v []float32) { m.val32 = v }

// ToF32 converts a float64 value slice into dst, growing it as needed —
// the streaming ingestion path's per-row conversion.
func ToF32(dst []float32, src []float64) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}
