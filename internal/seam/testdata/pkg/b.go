package pkg

type T struct{ n int }

func step() int { return 0 }

func (t *T) bump() { t.n++; t.n += step() }
