// Package fluidmodel implements the deterministic fluid model of
// BitTorrent-like networks from Qiu & Srikant (SIGCOMM 2004), the
// analytical baseline the paper contrasts its measurements with (§V:
// "Qiu and Srikant ... provide an analytical solution to a fluid model of
// BitTorrent ... a major limitation of this analytical model is the
// assumption of global knowledge").
//
// The model tracks the leecher population x(t) and seed population y(t):
//
//	dx/dt = λ − θx − min(c·x, μ(η·x + y))
//	dy/dt = min(c·x, μ(η·x + y)) − γy
//
// with λ the arrival rate, θ the abort rate, γ the seed departure rate,
// μ the per-peer upload capacity, c the per-peer download capacity, and η
// the piece-diversity effectiveness of leecher uploads (η → 1 under
// rarest first; the paper's entropy results justify η ≈ 1).
//
// Populations are in peers and capacities in file-copies per second
// (bytes/s divided by file size), so min(cx, μ(ηx+y)) is the system-wide
// completion rate in copies per second.
package fluidmodel

import (
	"errors"
	"math"
)

// Params are the model's rates. All must be non-negative; Mu must be
// positive.
type Params struct {
	Lambda float64 // leecher arrival rate, peers/second
	Theta  float64 // abort rate, 1/second
	Gamma  float64 // seed departure rate, 1/second
	Mu     float64 // per-peer upload capacity, copies/second
	C      float64 // per-peer download capacity, copies/second (Inf if <= 0)
	Eta    float64 // effectiveness of leecher uploads, 0..1
}

func (p Params) validate() error {
	switch {
	case p.Lambda < 0 || p.Theta < 0 || p.Gamma < 0 || p.Eta < 0 || p.Eta > 1:
		return errors.New("fluidmodel: negative rate or eta outside [0,1]")
	case p.Mu <= 0:
		return errors.New("fluidmodel: mu must be positive")
	default:
		return nil
	}
}

func (p Params) c() float64 {
	if p.C <= 0 {
		return math.Inf(1)
	}
	return p.C
}

// State is one point of the population trajectory.
type State struct {
	T float64 // seconds
	X float64 // leechers
	Y float64 // seeds
}

// completionRate is min(c x, μ(η x + y)): downloads finish either at the
// leechers' aggregate download capacity or at the system's aggregate
// upload capacity, whichever binds. Inputs are clamped at zero (RK4
// intermediate stages may probe slightly negative populations), and with
// no leechers there is no completion — this also avoids Inf·0 = NaN when
// the download side is uncapped.
func (p Params) completionRate(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	if y < 0 {
		y = 0
	}
	// float64(...) rounds each product, so no port fuses it into a
	// multiply-add (scripts/fused_float.sh).
	up := p.Mu * (float64(p.Eta*x) + y)
	c := p.c()
	if math.IsInf(c, 1) {
		return up
	}
	return math.Min(c*x, up)
}

// derivs returns (dx/dt, dy/dt).
func (p Params) derivs(x, y float64) (float64, float64) {
	done := p.completionRate(x, y)
	dx := p.Lambda - float64(p.Theta*x) - done // float64: no fused multiply-add
	dy := done - float64(p.Gamma*y)
	return dx, dy
}

// Integrate advances the model from (x0, y0) for dur seconds with step dt
// (classic RK4), returning the sampled trajectory including both
// endpoints. Populations are clamped at zero.
func (p Params) Integrate(x0, y0, dur, dt float64) ([]State, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if dur <= 0 || dt <= 0 {
		return nil, errors.New("fluidmodel: non-positive duration or step")
	}
	n := int(math.Ceil(dur / dt))
	out := make([]State, 0, n+1)
	x, y, t := x0, y0, 0.0
	out = append(out, State{T: t, X: x, Y: y})
	for i := 0; i < n; i++ {
		h := dt
		if t+h > dur {
			h = dur - t
		}
		x, y = rk4Step(p, x, y, h)
		if x < 0 {
			x = 0
		}
		if y < 0 {
			y = 0
		}
		t += h
		out = append(out, State{T: t, X: x, Y: y})
	}
	return out, nil
}

// Equilibrium returns the steady-state populations (x̄, ȳ) by integrating
// until the relative change over a window falls below tol, or maxT is
// reached. It also reports whether it converged.
func (p Params) Equilibrium(maxT, tol float64) (State, bool, error) {
	if err := p.validate(); err != nil {
		return State{}, false, err
	}
	dt := 1.0
	x, y, t := 0.0, 1.0, 0.0 // one initial seed, empty leecher population
	for t < maxT {
		prevX, prevY := x, y
		// Advance one 100-step window.
		for i := 0; i < 100; i++ {
			x, y = rk4Step(p, x, y, dt)
			if x < 0 {
				x = 0
			}
			if y < 0 {
				y = 0
			}
			t += dt
		}
		if math.Abs(x-prevX) < tol*(1+math.Abs(x)) && math.Abs(y-prevY) < tol*(1+math.Abs(y)) {
			return State{T: t, X: x, Y: y}, true, nil
		}
	}
	return State{T: t, X: x, Y: y}, false, nil
}

// MeanDownloadTime applies Little's law at equilibrium: T = x̄ / λ_effective,
// where λ_effective excludes aborted leechers.
func (p Params) MeanDownloadTime(maxT, tol float64) (float64, error) {
	eq, ok, err := p.Equilibrium(maxT, tol)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, errors.New("fluidmodel: equilibrium not reached")
	}
	effective := p.Lambda - float64(p.Theta*eq.X) // float64: no fused multiply-add
	if effective <= 0 {
		return math.Inf(1), nil
	}
	return eq.X / effective, nil
}

// FromSwarm maps concrete swarm parameters onto the model's rates:
// contentBytes is the file size, meanUpBps / meanDownBps the per-peer
// capacities in bytes/second (downBps <= 0 means uncapped).
func FromSwarm(arrivalRate, abortRate, seedDepartRate, meanUpBps, meanDownBps float64, contentBytes int64, eta float64) Params {
	size := float64(contentBytes)
	p := Params{
		Lambda: arrivalRate,
		Theta:  abortRate,
		Gamma:  seedDepartRate,
		Mu:     meanUpBps / size,
		Eta:    eta,
	}
	if meanDownBps > 0 {
		p.C = meanDownBps / size
	}
	return p
}

// rk4Step returns (x, y) advanced by one classic RK4 step of length h.
// float64(...) rounds each product, so no port fuses it into a
// multiply-add (scripts/fused_float.sh).
func rk4Step(p Params, x, y, h float64) (float64, float64) {
	k1x, k1y := p.derivs(x, y)
	k2x, k2y := p.derivs(x+float64(h/2*k1x), y+float64(h/2*k1y))
	k3x, k3y := p.derivs(x+float64(h/2*k2x), y+float64(h/2*k2y))
	k4x, k4y := p.derivs(x+float64(h*k3x), y+float64(h*k3y))
	x += float64(h / 6 * (k1x + float64(2*k2x) + float64(2*k3x) + k4x))
	y += float64(h / 6 * (k1y + float64(2*k2y) + float64(2*k3y) + k4y))
	return x, y
}
