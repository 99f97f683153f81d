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
