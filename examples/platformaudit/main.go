// Platformaudit demonstrates the paper's §2 analysis live: the same
// insider tampering is run against simulators of all three commercial
// platforms (Azure blob storage, AWS S3/Import-Export, Google SDC),
// showing that each platform's own integrity machinery passes the
// tampered download — the Fig. 5 gap.
//
//	go run ./examples/platformaudit
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/cloudsim/awssim"
	"repro/internal/cloudsim/azuresim"
	"repro/internal/cloudsim/gaesim"
	"repro/internal/cryptoutil"
	"repro/internal/storage"
)

var original = []byte("patient record: dosage = 10mg")

func tamper(b []byte) []byte {
	return bytes.Replace(b, []byte("10mg"), []byte("99mg"), 1)
}

func main() {
	fmt.Println("insider attack: rewrite stored data, fix platform metadata")
	fmt.Println()
	azure()
	aws()
	gae()
	fmt.Println()
	fmt.Println("all three platforms served tampered data through their own checks.")
	fmt.Println("run examples/financialaudit to see TPNR close this gap.")
}

func azure() {
	svc := azuresim.New(storage.NewMem(nil), time.Now)
	key, err := svc.CreateAccount("clinic")
	if err != nil {
		log.Fatal(err)
	}
	client := azuresim.NewClient(svc, "clinic", key)
	client.PutBlock("/records/patient-7", original)
	if err := svc.Store().(storage.Tamperer).Tamper("clinic/records/patient-7", true, tamper); err != nil {
		log.Fatal(err)
	}
	_, resp := client.GetBlock("/records/patient-7")
	fmt.Printf("Azure : GET status %d, Content-MD5 check passed=%v, data=%q\n",
		resp.Status, azuresim.VerifyMD5(resp), resp.Body)
}

func aws() {
	svc := awssim.New(storage.NewMem(nil), awssim.DefaultParams())
	secret, err := svc.CreateAccount("AKIACLINIC")
	if err != nil {
		log.Fatal(err)
	}
	put := awssim.RequestMAC(secret, "PUT", "records/patient-7")
	if _, err := svc.S3Put("AKIACLINIC", put, "records/patient-7", original); err != nil {
		log.Fatal(err)
	}
	if err := svc.Store().(storage.Tamperer).Tamper("records/patient-7", true, tamper); err != nil {
		log.Fatal(err)
	}
	get := awssim.RequestMAC(secret, "GET", "records/patient-7")
	data, md5d, err := svc.S3Get("AKIACLINIC", get, "records/patient-7")
	if err != nil {
		log.Fatal(err)
	}
	ok := cryptoutil.Sum(cryptoutil.MD5, data).Equal(md5d)
	fmt.Printf("AWS   : GET ok, recomputed-MD5 check passed=%v, data=%q\n", ok, data)
}

func gae() {
	src := storage.NewMem(nil)
	src.Put("records/patient-7", original, cryptoutil.Digest{})
	tunnel := gaesim.NewTunnelServer()
	key, err := cryptoutil.GenerateKeyPair(cryptoutil.SchemeRSA, 1024)
	if err != nil {
		log.Fatal(err)
	}
	tunnel.RegisterConsumer("clinic-apps", key.Signer().Public().Marshal())
	token, err := tunnel.IssueToken()
	if err != nil {
		log.Fatal(err)
	}
	dep := &gaesim.Deployment{
		Tunnel: tunnel,
		Agent:  gaesim.NewAgent(src, []gaesim.Rule{{ViewerID: "*", ResourcePrefix: "records/"}}),
	}
	if err := src.Tamper("records/patient-7", true, tamper); err != nil {
		log.Fatal(err)
	}
	req, err := gaesim.BuildSignedRequest(key, "clinic", "dr-x", "i1", "app", "clinic-apps", token, "records/patient-7")
	if err != nil {
		log.Fatal(err)
	}
	data, _, err := dep.Request(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GAE   : signed request validated, no digest returned,  data=%q\n", data)
}
