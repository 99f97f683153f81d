package sparse

// DenseNormSq returns the squared Euclidean norm of a.
func DenseNormSq(a []float64) float64 {
	s := 0.0
	for _, x := range a {
		s += x * x
	}
	return s
}
