package a

func readInTest(r rec) int {
	r.testOnly = 1
	r.byTest = 2
	return r.inTest
}
