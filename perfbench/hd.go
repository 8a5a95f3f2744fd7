package main

import (
	"math"
	"sort"
)

// hdQuantile is the Harrell–Davis estimate of the p-quantile of xs: a
// weighted mean of all order statistics, the weights a Beta((n+1)p,
// (n+1)(1-p)) distribution's mass on each rank's share of [0,1]. A tail
// quantile of a few hundred latencies then rests on several of the
// slowest requests instead of on one, so it moves less from run to run.
// An infinite value (a failed request) that carries weight makes the
// estimate infinite.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	sum, prev := 0.0, 0.0
	for i, x := range xs {
		cdf := regIncBeta(a, b, float64(i+1)/float64(n))
		if w := cdf - prev; w > 0 {
			if math.IsInf(x, 1) {
				return x
			}
			sum += w * x
		}
		prev = cdf
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < 1e-15 {
			break
		}
	}
	return front * f / a
}
