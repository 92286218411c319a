package pkg

import "fmt"

type Mode int

const (
	Fast Mode = iota
	Slow
)

var (
	names = [...]string{Fast: "fast", Slow: "slow"}
	Modes = []Mode{Fast, Slow}
)

func (m Mode) String() string { return fmt.Sprint(names[m]) }

func pick(m Mode) int {
	switch m {
	case Fast:
		return 1
	}
	return step() + step()
}
