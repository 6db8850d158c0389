#!/usr/bin/env python3
"""The generate/verify/paraphrase loop and pseudo-labeling, on mock ports.

All six external-model ports (describer, generator, detector, region
verifier, text verifier, paraphraser) are swapped for deterministic mocks, so
the control flow of the pipeline can be inspected on a desk: prompt
construction from a reference image, per-pair verification verdicts, prompt
paraphrasing after a rejection, and budget exhaustion.

Usage:
    python3 demos/04_generation_filtering_loop.py
"""

from bright_kit import Dataset, HoiClass, HoiInstance, ImageRecord, Vocabulary
from bright_kit.augment import (
    Detections,
    GenerationBudget,
    build_prompt,
    crawl_query,
    describe_query,
    generate_valid_images,
    mock_ports,
    pseudo_label,
    region_query,
    verification_query,
)
from bright_kit.model import BBox


def main():
    cls = HoiClass(1, 1, 1, "ride", "horse")
    vocab = Vocabulary([cls])
    refs = Dataset(
        [ImageRecord("ref0", "ref0.jpg", 200, 200,
                     (HoiInstance(BBox(10, 10, 80, 180), BBox(60, 40, 190, 190), 1),))],
        vocab,
    )

    print("=" * 64)
    print("Queries the pipeline sends to its ports")
    print("=" * 64)
    print(f"  describer : {describe_query(cls)}")
    print(f"  text check: {verification_query(cls)}")
    print(f"  region    : {region_query(cls)}")
    print(f"  crawler   : {crawl_query(cls)}")

    print()
    print("=" * 64)
    print("Prompt construction from a retrieved reference image")
    print("=" * 64)
    ports = mock_ports(description="galloping along a beach at sunset")
    prompt = build_prompt(cls, refs, ports, seed=0)
    print(f"  reference: {prompt.reference_image_id}")
    print(f"  prompt   : {prompt.text}")

    print()
    print("=" * 64)
    print("Loop with a verifier that rejects every other image")
    print("=" * 64)
    ports = mock_ports(verdicts=[False, True])
    gen = generate_valid_images(cls, GenerationBudget(10, 2), ports, refs, seed=0)
    for a in gen.attempts:
        marker = "VALID" if a.valid else "rejected -> paraphrase"
        print(f"  attempt {a.attempt}: generation {a.paraphrase_generation}, {marker}")
    print(f"  -> {len(gen.valid_images)} valid images in {len(gen.attempts)} attempts, "
          f"{gen.paraphrase_events} paraphrase events ({gen.status})")

    print()
    print("=" * 64)
    print("An all-reject verifier exhausts the attempt budget")
    print("=" * 64)
    gen = generate_valid_images(cls, GenerationBudget(5, 1),
                                mock_ports(verdicts=[False]), refs, seed=0)
    print(f"  generator calls: {gen.generator_calls}, status: {gen.status}")
    print(f"  final prompt paraphrase generation: "
          f"{gen.attempts[-1].paraphrase_generation + 1}")

    print()
    print("=" * 64)
    print("Pseudo-labeling every person-object pair of a new image")
    print("=" * 64)
    dets = Detections(
        person_boxes=(BBox(10, 10, 60, 160), BBox(80, 10, 130, 160)),
        object_boxes=(BBox(40, 60, 180, 170),),
    )
    instances = pseudo_label("mock://image/demo", dets, cls, mock_ports())
    print(f"  {len(dets.person_boxes)} persons x {len(dets.object_boxes)} objects "
          f"-> {len(instances)} accepted annotations")
    for inst in instances:
        print(f"  instance: class {inst.class_id}, provenance {inst.provenance}")


if __name__ == "__main__":
    main()
