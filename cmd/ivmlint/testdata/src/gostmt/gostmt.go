// Package gostmt is the seeded fixture for the gostmt analyzer: one
// deliberate violation and one blessed suppression; dispatch.go exercises the
// exempt-file rule.
package gostmt

func launch(ch chan int) {
	go func() { ch <- 1 }() // violation: naked goroutine outside the pool files

	//ivmlint:allow gostmt — fixture bless
	go func() { ch <- 2 }()
}
