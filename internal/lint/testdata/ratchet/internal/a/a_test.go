package a

func readInTest(r rec) int {
	r.testOnly = 1
	return r.inTest
}
