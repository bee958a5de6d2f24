package buildfiles

// wordBytes is declared once per architecture; the loader must keep
// only the file go build compiles here.
func wordBytes() int { return 8 }
