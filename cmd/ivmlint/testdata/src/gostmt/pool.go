package gostmt

// pool.go is one of the blessed pool files (internal/algebra's is the only
// place its kernels' chunked form launches goroutines from): launches here
// are exempt from the gostmt rule and must produce no finding.
func poolLaunch(ch chan int) {
	go func() { ch <- 3 }()
}
