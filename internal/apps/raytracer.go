package apps

import (
	"fmt"
	"math"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/satin"
)

// RaytracerPerfect is the unoptimized raytracer at level perfect: an
// iterative smallpt-style path tracer over a sphere scene, with a 30-bit LCG
// random generator (state passed as a one-element private array, MCPL's
// idiom for in-out scalars). spheres is [ns,11]: center xyz, radius,
// emission rgb, color rgb, type (0 diffuse, 1 mirror). The image block is
// rows x w pixels starting at row y0.
const RaytracerPerfect = `
float rnd(int[1] state) {
  state[0] = (state[0] * 1103515245 + 12345) & 1073741823;
  return (float)state[0] * 0.000000000931322574615478515625;
}

perfect void raytrace(int w, int h, int y0, int rows, int samples, int ns, int seed0,
    float[ns,11] spheres, float[rows,w,3] img) {
  foreach (int y in rows threads) {
    foreach (int x in w threads) {
      int[1] rng;
      rng[0] = (((y0 + y) * w + x) * 9781 + seed0) & 1073741823;
      float accR = 0.0;
      float accG = 0.0;
      float accB = 0.0;
      for (int s = 0; s < samples; s++) {
        float u = ((float)x + rnd(rng)) / (float)w - 0.5;
        float v = ((float)(y0 + y) + rnd(rng)) / (float)h - 0.5;
        float ox = 50.0;
        float oy = 52.0;
        float oz = 295.6;
        float dx = u * 0.5135 * ((float)w / (float)h);
        float dy = v * 0.5135;
        float dz = -1.0;
        float dlen = sqrt(dx * dx + dy * dy + dz * dz);
        dx = dx / dlen;
        dy = dy / dlen;
        dz = dz / dlen;
        float atR = 1.0;
        float atG = 1.0;
        float atB = 1.0;
        boolean alive = true;
        int depth = 0;
        @expect(5) while (alive && depth < 5) {
          float tbest = 1000000000.0;
          int hit = 0 - 1;
          for (int sp = 0; sp < ns; sp++) {
            float opx = spheres[sp,0] - ox;
            float opy = spheres[sp,1] - oy;
            float opz = spheres[sp,2] - oz;
            float bq = opx * dx + opy * dy + opz * dz;
            float det = bq * bq - (opx * opx + opy * opy + opz * opz) + spheres[sp,3] * spheres[sp,3];
            if (det > 0.0) {
              float dets = sqrt(det);
              float t = bq - dets;
              if (t > 0.01 && t < tbest) {
                tbest = t;
                hit = sp;
              } else {
                t = bq + dets;
                if (t > 0.01 && t < tbest) {
                  tbest = t;
                  hit = sp;
                }
              }
            }
          }
          if (hit < 0) {
            alive = false;
          } else {
            accR += atR * spheres[hit,4];
            accG += atG * spheres[hit,5];
            accB += atB * spheres[hit,6];
            atR = atR * spheres[hit,7];
            atG = atG * spheres[hit,8];
            atB = atB * spheres[hit,9];
            float hx = ox + dx * tbest;
            float hy = oy + dy * tbest;
            float hz = oz + dz * tbest;
            float nx = (hx - spheres[hit,0]) / spheres[hit,3];
            float ny = (hy - spheres[hit,1]) / spheres[hit,3];
            float nz = (hz - spheres[hit,2]) / spheres[hit,3];
            float ndotd = nx * dx + ny * dy + nz * dz;
            if (ndotd > 0.0) {
              nx = 0.0 - nx;
              ny = 0.0 - ny;
              nz = 0.0 - nz;
              ndotd = 0.0 - ndotd;
            }
            if (spheres[hit,10] < 0.5) {
              float r1 = 6.2831853 * rnd(rng);
              float r2 = rnd(rng);
              float r2s = sqrt(r2);
              float ux = 0.0;
              float uy = 0.0;
              float uz = 0.0;
              if (fabs(nx) > 0.1) {
                ux = 0.0 - nz;
                uz = nx;
              } else {
                uy = nz;
                uz = 0.0 - ny;
              }
              float ulen = sqrt(ux * ux + uy * uy + uz * uz);
              ux = ux / ulen;
              uy = uy / ulen;
              uz = uz / ulen;
              float vx = ny * uz - nz * uy;
              float vy = nz * ux - nx * uz;
              float vz = nx * uy - ny * ux;
              float w1 = cos(r1) * r2s;
              float w2 = sin(r1) * r2s;
              float w3 = sqrt(1.0 - r2);
              dx = ux * w1 + vx * w2 + nx * w3;
              dy = uy * w1 + vy * w2 + ny * w3;
              dz = uz * w1 + vz * w2 + nz * w3;
            } else {
              dx = dx - nx * 2.0 * ndotd;
              dy = dy - ny * 2.0 * ndotd;
              dz = dz - nz * 2.0 * ndotd;
            }
            ox = hx + dx * 0.02;
            oy = hy + dy * 0.02;
            oz = hz + dz * 0.02;
            depth++;
          }
        }
      }
      img[y,x,0] = accR / (float)samples;
      img[y,x,1] = accG / (float)samples;
      img[y,x,2] = accB / (float)samples;
    }
  }
}
`

// RaytracerKernels returns the kernel set for the variant. The optimized
// GPU variant shares the perfect-level algorithm (the paper: restructuring
// would need a different algorithm, which MCL cannot suggest), so both
// variants register the perfect kernel; the optimized set differs only in
// that MCL re-tunes the launch configuration.
func RaytracerKernels(v Variant) (*codegen.KernelSet, error) {
	return codegen.NewKernelSet("raytrace", RaytracerPerfect)
}

// RaytracerProblem sizes the rendering.
type RaytracerProblem struct {
	W, H       int
	Samples    int
	Depth      int
	LeafRows   int
	NodeLeaves int
	Seed       int64
}

// PaperRaytracer is the evaluation configuration of Sec. V-B.1: the Cornell
// scene at 16384x8192 with 500 samples per pixel.
func PaperRaytracer() RaytracerProblem {
	return RaytracerProblem{W: 16384, H: 8192, Samples: 500, Depth: 5, LeafRows: 4, NodeLeaves: 4, Seed: 1}
}

// Flops estimates the paper's operation count: pixels x samples x depth x
// the ~60 flops of one bounce (intersection against the scene plus
// shading).
func (p RaytracerProblem) Flops() float64 {
	return float64(p.W) * float64(p.H) * float64(p.Samples) * float64(p.Depth) * 60
}

func (p RaytracerProblem) leaves() int { return (p.H + p.LeafRows - 1) / p.LeafRows }

// CornellScene builds the sphere-based Cornell box of smallpt (walls as
// huge spheres, one mirror ball, one diffuse ball, an area light).
func CornellScene() *interp.Array {
	type s struct {
		c    [3]float64
		r    float64
		e    [3]float64
		col  [3]float64
		kind float64
	}
	scene := []s{
		{[3]float64{1e5 + 1, 40.8, 81.6}, 1e5, [3]float64{}, [3]float64{.75, .25, .25}, 0},   // left
		{[3]float64{-1e5 + 99, 40.8, 81.6}, 1e5, [3]float64{}, [3]float64{.25, .25, .75}, 0}, // right
		{[3]float64{50, 40.8, 1e5}, 1e5, [3]float64{}, [3]float64{.75, .75, .75}, 0},         // back
		{[3]float64{50, 1e5, 81.6}, 1e5, [3]float64{}, [3]float64{.75, .75, .75}, 0},         // bottom
		{[3]float64{50, -1e5 + 81.6, 81.6}, 1e5, [3]float64{}, [3]float64{.75, .75, .75}, 0}, // top
		{[3]float64{27, 16.5, 47}, 16.5, [3]float64{}, [3]float64{.999, .999, .999}, 1},      // mirror
		{[3]float64{73, 16.5, 78}, 16.5, [3]float64{}, [3]float64{.999, .999, .999}, 0},      // diffuse ball
		{[3]float64{50, 681.6 - .27, 81.6}, 600, [3]float64{12, 12, 12}, [3]float64{}, 0},    // light
	}
	arr := interp.NewFloatArray(len(scene), 11)
	for i, sp := range scene {
		row := arr.F[i*11:]
		row[0], row[1], row[2], row[3] = sp.c[0], sp.c[1], sp.c[2], sp.r
		row[4], row[5], row[6] = sp.e[0], sp.e[1], sp.e[2]
		row[7], row[8], row[9] = sp.col[0], sp.col[1], sp.col[2]
		row[10] = sp.kind
	}
	return arr
}

// RunRaytracer renders the scene on the cluster in the given variant.
func RunRaytracer(cl *core.Cluster, prob RaytracerProblem, v Variant) (Result, error) {
	if prob.H%prob.LeafRows != 0 {
		return Result{}, fmt.Errorf("apps: raytracer H must be a multiple of LeafRows")
	}
	scene := CornellScene()
	ns := scene.Dims[0]
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		divide1D(ctx, v, 0, prob.leaves(), prob.NodeLeaves,
			func(lo, hi int) (int64, int64) {
				// Input: the scene (tiny); output: the rendered rows as
				// 8-bit RGB (smallpt's PPM output format).
				return int64(ns*11*4 + 64), int64((hi - lo) * prob.LeafRows * prob.W * 3)
			},
			func(c *satin.Context, leaf int) {
				raytracerLeaf(cl, c, prob, v, scene, leaf)
			})
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return finish(prob.Flops(), end), nil
}

func raytracerLeaf(cl *core.Cluster, ctx *satin.Context, prob RaytracerProblem, v Variant, scene *interp.Array, leaf int) {
	ns := scene.Dims[0]
	y0 := leaf * prob.LeafRows
	rows := min(prob.LeafRows, prob.H-y0)
	leafFlops := float64(rows) * float64(prob.W) * float64(prob.Samples) * float64(prob.Depth) * 60
	if v == Satin {
		cpuLeaf(ctx, leafFlops, "raytrace-leaf")
		return
	}
	kernel, err := core.GetKernel(ctx, "raytrace")
	if err != nil {
		cpuLeaf(ctx, leafFlops, "raytrace-leaf-cpu")
		return
	}
	spec := core.LaunchSpec{
		Params: map[string]int64{
			"w": int64(prob.W), "h": int64(prob.H), "y0": int64(y0),
			"rows": int64(rows), "samples": int64(prob.Samples),
			"ns": int64(ns), "seed0": prob.Seed,
		},
		InBytes:  int64(ns * 11 * 4),
		OutBytes: int64(rows * prob.W * 3), // 8-bit RGB rows (PPM)
		Label:    "raytrace",
	}
	if d := rtVerifyData[cl]; d != nil && cl.Verify() {
		img := interp.NewFloatArray(rows, prob.W, 3)
		d.views = append(d.views, rtImgView{y0: y0, arr: img})
		spec.Args = []any{
			int64(prob.W), int64(prob.H), int64(y0), int64(rows),
			int64(prob.Samples), int64(ns), prob.Seed, scene, img,
		}
	}
	if err := kernel.NewLaunch(spec).Run(ctx); err != nil {
		cpuLeaf(ctx, leafFlops, "raytrace-leaf-cpu")
	}
}

// RaytracerData marks a cluster as carrying a verification image.
type RaytracerData struct {
	Prob RaytracerProblem
	Img  *interp.Array // [h,w,3]

	views []rtImgView // the run's leaf blocks, until FlushRaytracer
}

var rtVerifyData = map[*core.Cluster]*RaytracerData{}

// AttachRaytracerData registers a full-image buffer for verification runs.
func AttachRaytracerData(cl *core.Cluster, prob RaytracerProblem) *RaytracerData {
	d := &RaytracerData{Prob: prob, Img: interp.NewFloatArray(prob.H, prob.W, 3)}
	rtVerifyData[cl] = d
	return d
}

type rtImgView struct {
	y0  int
	arr *interp.Array
}

// FlushRaytracer copies rendered leaf blocks back into the attached image
// and ends the run: the package keeps nothing of cl.
func FlushRaytracer(cl *core.Cluster) {
	d := rtVerifyData[cl]
	if d == nil {
		return
	}
	w := d.Prob.W
	for _, v := range d.views {
		copy(d.Img.F[v.y0*w*3:v.y0*w*3+v.arr.Len()], v.arr.F)
	}
	d.views = nil
	delete(rtVerifyData, cl)
}

// RaytraceReference renders the same block in pure Go, mirroring the MCPL
// kernel's arithmetic and RNG exactly, so verification can demand exact
// equality.
func RaytraceReference(w, h, y0, rows, samples int, seed0 int64, scene *interp.Array) *interp.Array {
	ns := scene.Dims[0]
	sp := func(i, j int) float64 { return scene.F[i*11+j] }
	img := interp.NewFloatArray(rows, w, 3)
	for y := 0; y < rows; y++ {
		for x := 0; x < w; x++ {
			state := (int64((y0+y)*w+x)*9781 + seed0) & 1073741823
			rnd := func() float64 {
				state = (state*1103515245 + 12345) & 1073741823
				return float64(state) * 0.000000000931322574615478515625
			}
			var accR, accG, accB float64
			for s := 0; s < samples; s++ {
				u := (float64(x)+rnd())/float64(w) - 0.5
				v := (float64(y0+y)+rnd())/float64(h) - 0.5
				ox, oy, oz := 50.0, 52.0, 295.6
				dx := u * 0.5135 * (float64(w) / float64(h))
				dy := v * 0.5135
				dz := -1.0
				dlen := math.Sqrt(dx*dx + dy*dy + dz*dz)
				dx, dy, dz = dx/dlen, dy/dlen, dz/dlen
				atR, atG, atB := 1.0, 1.0, 1.0
				alive := true
				for depth := 0; alive && depth < 5; {
					tbest := 1000000000.0
					hit := -1
					for spi := 0; spi < ns; spi++ {
						opx := sp(spi, 0) - ox
						opy := sp(spi, 1) - oy
						opz := sp(spi, 2) - oz
						bq := opx*dx + opy*dy + opz*dz
						det := bq*bq - (opx*opx + opy*opy + opz*opz) + sp(spi, 3)*sp(spi, 3)
						if det > 0 {
							dets := math.Sqrt(det)
							if t := bq - dets; t > 0.01 && t < tbest {
								tbest, hit = t, spi
							} else if t := bq + dets; t > 0.01 && t < tbest {
								tbest, hit = t, spi
							}
						}
					}
					if hit < 0 {
						alive = false
						continue
					}
					accR += atR * sp(hit, 4)
					accG += atG * sp(hit, 5)
					accB += atB * sp(hit, 6)
					atR *= sp(hit, 7)
					atG *= sp(hit, 8)
					atB *= sp(hit, 9)
					hx := ox + dx*tbest
					hy := oy + dy*tbest
					hz := oz + dz*tbest
					nx := (hx - sp(hit, 0)) / sp(hit, 3)
					ny := (hy - sp(hit, 1)) / sp(hit, 3)
					nz := (hz - sp(hit, 2)) / sp(hit, 3)
					ndotd := nx*dx + ny*dy + nz*dz
					if ndotd > 0 {
						nx, ny, nz, ndotd = -nx, -ny, -nz, -ndotd
					}
					if sp(hit, 10) < 0.5 {
						r1 := 6.2831853 * rnd()
						r2 := rnd()
						r2s := math.Sqrt(r2)
						var ux, uy, uz float64
						if math.Abs(nx) > 0.1 {
							ux, uz = -nz, nx
						} else {
							uy, uz = nz, -ny
						}
						ulen := math.Sqrt(ux*ux + uy*uy + uz*uz)
						ux, uy, uz = ux/ulen, uy/ulen, uz/ulen
						vx := ny*uz - nz*uy
						vy := nz*ux - nx*uz
						vz := nx*uy - ny*ux
						w1 := math.Cos(r1) * r2s
						w2 := math.Sin(r1) * r2s
						w3 := math.Sqrt(1 - r2)
						dx = ux*w1 + vx*w2 + nx*w3
						dy = uy*w1 + vy*w2 + ny*w3
						dz = uz*w1 + vz*w2 + nz*w3
					} else {
						dx = dx - nx*2*ndotd
						dy = dy - ny*2*ndotd
						dz = dz - nz*2*ndotd
					}
					ox = hx + dx*0.02
					oy = hy + dy*0.02
					oz = hz + dz*0.02
					depth++
				}
			}
			img.F[(y*w+x)*3] = accR / float64(samples)
			img.F[(y*w+x)*3+1] = accG / float64(samples)
			img.F[(y*w+x)*3+2] = accB / float64(samples)
		}
	}
	return img
}
