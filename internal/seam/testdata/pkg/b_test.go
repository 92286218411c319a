package pkg

func unwalked() { step() }
