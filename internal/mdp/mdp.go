// Package mdp holds the Markov-decision-process vocabulary of paper §4
// shared by the learning policies: the (VM, destination-PM) action encoding
// and its bijection onto the d = N·M-dimensional index space that spans
// Megh's sparse basis.
package mdp

import "fmt"

// Action is a live-migration decision (paper §4): move VM to PM Host.
// When Host already hosts the VM, the action is a "stay" no-op — that is
// how the single (j,k) encoding answers the *when* question.
type Action struct {
	VM   int
	Host int
}

// Index maps the action to its basis index j·M + k, the coordinate of the
// sparse basis vector φ_jk of §5.
func (a Action) Index(numHosts int) int {
	if numHosts <= 0 {
		panic(fmt.Sprintf("mdp: non-positive host count %d", numHosts))
	}
	if a.VM < 0 || a.Host < 0 || a.Host >= numHosts {
		panic(fmt.Sprintf("mdp: action %+v invalid for %d hosts", a, numHosts))
	}
	return a.VM*numHosts + a.Host
}

// SpaceSize returns d = N·M, the dimension of the projected action space.
func SpaceSize(numVMs, numHosts int) int {
	if numVMs < 0 || numHosts < 0 {
		panic(fmt.Sprintf("mdp: negative space size %d×%d", numVMs, numHosts))
	}
	return numVMs * numHosts
}
